"""LSTM engine with peephole connections, in float and fixed-point modes.

The float path is the numerical reference. Like a quantized layer, a float
layer steps on its gates stacked (i, f, o, c), as one (4H, D) and one
(4H, H) float64 matrix (LstmLayerParams.stacked), and one element-wise
update (float_update) serves its step and its block. The fixed path
evaluates the same six recurrence equations on integer levels:
matrix-vector products accumulate in wide integers, the accumulated
pre-activation is re-quantized to a 16-bit scheme, activations go through
lookup tables, the cell is kept in a 16-bit scheme and the layer output in
an 8-bit signal scheme. Those are the only rounding points.

Each QuantizedLstmLayer is compiled once, when it is built. Each row of
its stacked weight matrices carries the row's power-of-two factor, which
brings that row's product to half-levels, so a product needs no scaling
after it. The matrices are float32 when every partial sum of one side's
matrix-vector product is an integer below 2^24 times its row factor and a
normal float32, where float32 holds it exactly, and float64 otherwise; the
gate accumulators and the element-wise arithmetic are float64 (exact
below 2^53). Every other power-of-two scale of a step is precomputed on
the layer, as a per-row offset or factor or folded into an activation
table, so a step does no exponent arithmetic.
The hardware emulation runs the same step; to model the PE arrays' clock
order it passes its own product (hwsim.clock_order_product) in place of
the tiled BLAS product (tiled_product). A network's tensors are named once
(LAYER_GROUPS, network_shapes, width_key); every part lists its tensors by
name (tensors()), and from_tensors builds a quantized part from them.
Every fixed-point width, step and table setting has one home, the formats
table FORMATS, keyed like a container header's formats, and one function,
layer_formats, that turns such a table into the LayerFixedFormat of each
layer of a stack.

The element-wise update works on half-levels: pre-activations at twice
their scale. There one truncating cast, j = trunc(2x), fixes x rounded
half away from zero: for x >= 0 it is floor(x + 1/2) = floor((2x + 1) / 2)
= (j + 1) // 2, and for x < 0 it is -floor(-x + 1/2) = j // 2. So a
half-level table (ActivationLut.half_level_table) over j in
[-(2R + 1), 2R + 1] holds the entry of that level saturated to the reach
R, and reading it at j + 2R + 1 with the index clipped to its ends
(lookup) rounds, saturates and looks up at once. Doubling is exact, so
the bits are those of rounding, saturating and reading a level table.
The factor 2 rides in the per-row scales and the peepholes, and the
cell and output factors (k_fc, k_ic, k_h) in the f, c~ and tanh(c)
tables; the cell and output are rounded in float64 by the one
requantizer, quant.round_saturate.

The gate accumulation is an input half (input_half_levels), over any
number of columns, plus the recurrent half. The input half is the x-side
product plus one per-row offset, at half-levels, and the recurrent half
is the h-side product. fixed_step_levels and fixed_block_levels share one
step, which adds the recurrent half to the input half and runs the
element-wise update (elementwise_update); both take the matrix product as
an argument, tiled_product by default, and fixed_step_levels also takes a
recurrent product made before (the character LM keeps one per context,
see engine.RnnCharLm). fixed_block_levels makes one input-side product
for k consecutive inputs of one stream. A one-hot input (the character
LM's first layer) may be given as its labels, and its input half is then
read from the layer's label table (QuantizedLstmLayer.label_inputs)
instead of a product. Every partial sum of a product is an integer times
a row factor, within the exact range of the matrix dtype, so the
summation order of a product does not change a bit: the block gives the
bits of k single steps, the label table those of the one-hot product,
and a product may be split into row tiles (TILE_ROWS, TILE_COLUMNS) or
summed in the PE arrays' clock order. Float products round, and a product
over k columns sums in another order than k one-column products. So the
float path makes one-column products (column_products) wherever a
column's bits must not depend on the columns beside it: float_block's
input side, each column the product of a single step, and float_step's
recurrent half, which the character LM keeps per context like the fixed
path's. float_step's input side over a batch is tiled_product, whose tiles
at H = 256 are the four gate matrices.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .quant import QuantScheme, quantize, round_saturate

__all__ = [
    "LAYER_GROUPS",
    "layer_shapes",
    "network_shapes",
    "width_key",
    "LstmLayerParams",
    "OutputLayerParams",
    "LstmState",
    "ActivationLut",
    "build_lut",
    "LayerFixedFormat",
    "FORMATS",
    "layer_formats",
    "QuantizedLstmLayer",
    "QuantizedOutputLayer",
    "lstm_step",
    "column_products",
    "float_step",
    "float_block",
    "float_update",
    "fixed_step_levels",
    "fixed_block_levels",
    "tiled_product",
    "input_half_levels",
    "elementwise_update",
    "lookup",
    "softmax",
]

# a layer's tensors by group, each in stacking order i, f, o, c
LAYER_GROUPS = {
    "wx": ("W_xi", "W_xf", "W_xo", "W_xc"),
    "wh": ("W_hi", "W_hf", "W_ho", "W_hc"),
    "peep": ("w_ci", "w_cf", "w_co"),
    "bias": ("b_i", "b_f", "b_o", "b_c"),
}


def layer_shapes(d: int, h: int) -> dict:
    """name -> shape of every tensor of a layer with input width d and h
    cells, in LAYER_GROUPS order."""
    shapes = {"wx": (h, d), "wh": (h, h), "peep": (h,), "bias": (h,)}
    return {name: shapes[g] for g, names in LAYER_GROUPS.items() for name in names}


def network_shapes(d: int, hidden, labels: int) -> dict:
    """name -> shape of every tensor of a network with input width d, LSTM
    layers of the widths hidden and labels outputs: layerN.<name> in
    layer_shapes order for each layer, then output.W and output.b."""
    shapes = {}
    for li, h in enumerate(hidden):
        shapes.update({f"layer{li}.{name}": s for name, s in layer_shapes(d, h).items()})
        d = h
    return {**shapes, "output.W": (labels, d), "output.b": (labels,)}


def width_key(name: str) -> str:
    """The formats key, and quantized-part attribute, of a tensor's width,
    by its name in its part or network: bias_bits for a bias, else weight_bits."""
    return "bias_bits" if name.split(".")[-1] in LAYER_GROUPS["bias"] + ("b",) else "weight_bits"


# the fixed-point formats of a network, keyed like a container header's
# formats: level widths, power-of-two step exponents, activation tables
FORMATS = {
    "weight_bits": 6,
    "bias_bits": 6,
    "signal_bits": 8,
    "cell_bits": 16,
    "sig_in_exp": -4,   # feature inputs; one-hot LM inputs use ONE_HOT_SIG_IN_EXP
    "sig_exp": -7,      # hidden-layer signals
    "cell_exp": -8,
    "pre_exp": -8,
    "act_exp": -8,
    "lut_resolution": 1024,
    "lut_lo": -8.0,
    "lut_hi": 8.0,
}
# the input step of a one-hot LM input: 1.0 is level 64, exact at 8 bits
ONE_HOT_SIG_IN_EXP = -6
PRE_BITS = 16  # accumulated pre-activations are requantized to this width

# Stacked gate products with 4 to 15 columns run as 256-row tiles, one
# per gate at H = 256. Measured on a 2-core Xeon with numpy 2.4.6's
# OpenBLAS 0.3.31 at one thread, a (1024 x 256) @ (256 x B) float32
# product costs, in us, whole / in 256-row tiles:
#   B = 1: 26 / 38,  2: 28 / 43,  3: 48 / 60,  4: 93 / 47,  6: 138 / 75,
#   8: 117 / 91,  12: 160 / 138,  15: 296 / 158,  16: 149 / 165,  24: 197 / 215
# The sums are exact integers (see the module docstring), so the tiles
# give the bits of the whole product.
TILE_ROWS, TILE_COLUMNS = 256, range(4, 16)


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass
class LstmLayerParams:
    """One layer of the peephole LSTM: eight matrices, three diagonal
    peephole vectors and four biases, with an optional quantized twin."""

    W_xi: np.ndarray
    W_xf: np.ndarray
    W_xo: np.ndarray
    W_xc: np.ndarray
    W_hi: np.ndarray
    W_hf: np.ndarray
    W_ho: np.ndarray
    W_hc: np.ndarray
    w_ci: np.ndarray
    w_cf: np.ndarray
    w_co: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    b_c: np.ndarray
    quantized: Optional["QuantizedLstmLayer"] = None
    _stacked: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        h, d = self.W_xi.shape
        for name, shape in layer_shapes(d, h).items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape mismatch")

    def tensors(self) -> dict:
        """name -> values of every tensor, in LAYER_GROUPS order."""
        return {name: getattr(self, name) for names in LAYER_GROUPS.values() for name in names}

    def stacked(self) -> dict:
        """group -> float64 gates stacked in LAYER_GROUPS order: wx (4H, D),
        wh (4H, H), peep (3, H) and bias (4, H), as QuantizedLstmLayer
        stacks its levels. Built on the first call; every per-gate tensor
        then becomes a row view of its stack, so each value is held once."""
        if self._stacked is None:
            self._stacked = {}
            for group, names in LAYER_GROUPS.items():
                stack = np.vstack([getattr(self, n) for n in names], dtype=np.float64)
                rows = np.split(stack, len(names))
                for name, view in zip(names, rows):
                    setattr(self, name, view.reshape(getattr(self, name).shape))
                self._stacked[group] = stack
        return self._stacked

    @property
    def hidden(self) -> int:
        return self.W_xi.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_xi.shape[1]


@dataclass
class OutputLayerParams:
    """Fully connected output layer feeding the softmax."""

    W: np.ndarray
    b: np.ndarray
    quantized: Optional["QuantizedOutputLayer"] = None

    def __post_init__(self):
        if self.W.shape[0] != self.b.shape[0]:
            raise ValueError("output bias length must match label count")

    def tensors(self) -> dict:
        """name -> values of W and b."""
        return {"W": self.W, "b": self.b}

    @property
    def labels(self) -> int:
        return self.W.shape[0]

    @property
    def hidden(self) -> int:
        return self.W.shape[1]


@dataclass
class LstmState:
    """Previous output h and cell c. In fixed mode both hold integer levels
    (h in the layer's output signal scheme, c in the 16-bit cell scheme)."""

    h: np.ndarray
    c: np.ndarray


def zero_state(hidden: int, batch: Optional[int] = None) -> LstmState:
    shape = (hidden,) if batch is None else (hidden, batch)
    return LstmState(h=np.zeros(shape), c=np.zeros(shape))


# ---------------------------------------------------------------------------
# Lookup-table activations
# ---------------------------------------------------------------------------


@dataclass
class ActivationLut:
    """Uniformly sampled activation table with round-to-nearest indexing.

    The grid is mid-tread: x_k = lo + k * h with a sample exactly at zero,
    so sigmoid(0) = 0.5 and tanh(0) = 0 are table entries and a zero input
    passes through the fixed datapath without bias. tanh entries for x > 0
    are mirrored into x < 0 during construction, making entry(-x_k) ==
    -entry(x_k) exact. Entries are integer levels at step 2**out_exp with
    |level| <= 2**-out_exp, so +-1.0 is representable exactly. Out-of-range
    inputs clamp to the end entries.
    """

    kind: str
    entries: np.ndarray
    lo: float
    hi: float
    out_exp: int
    _level_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if np.any(np.diff(self.entries) < 0):
            raise ValueError("LUT entries must be monotone non-decreasing")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.n

    def grid(self) -> np.ndarray:
        return self.lo + np.arange(self.n) * self.spacing

    def apply_real(self, x):
        """Table lookup for real inputs; returns real outputs."""
        return self.apply_levels(x, 0) * 2.0**self.out_exp

    def apply_levels(self, levels, in_exp: int):
        """Table lookup for integer levels at scale 2**in_exp.

        Returns integer entry levels (at scale 2**out_exp). The index
        computation is exact: levels times a power of two, offset by a
        dyadic constant.
        """
        u = (np.asarray(levels, dtype=np.float64) * 2.0**in_exp - self.lo) / self.spacing
        idx = round_saturate(np.asarray(u), self.n - 1)  # to the nearest entry
        return self.entries[np.maximum(idx, 0, out=idx).astype(np.int64)]

    def reach(self, in_exp: int) -> int:
        """A level count beyond which inputs at scale 2**in_exp clamp to the
        end entries: apply_levels(l) == apply_levels(sign(l) * reach) for
        every |l| >= reach."""
        return max(1, math.ceil(max(self.hi, -self.lo) * 2.0**-in_exp))

    def level_table(self, in_exp: int, max_level: int, scale: float = 1.0) -> np.ndarray:
        """scale * apply_levels(arange(-max_level, max_level + 1), in_exp):
        the entry for level l sits at index l + max_level, exact by
        construction when scale is a power of two.

        Built on first use and kept on this table, so every layer sharing it
        shares the result; it is read-only.
        """
        return self._memo(
            ("level", in_exp, max_level, scale),
            lambda: self.apply_levels(np.arange(-max_level, max_level + 1), in_exp) * scale,
        )

    def half_level_table(self, in_exp: int, reach: int, scale: float = 1.0) -> np.ndarray:
        """The level table of that reach, read by half-levels.

        Index j + 2 * reach + 1, for j in [-(2 * reach + 1), 2 * reach + 1],
        holds scale * apply_levels(clamp(round(j / 2), +-reach)), where round
        rounds half away from zero. A real level x at twice its scale
        truncates to j = trunc(2x), and round(x) is round(j / 2), so reading
        the table at j, clipped to its ends, rounds, saturates and looks up x
        at once (see lookup). Memoized and read-only like level_table.
        """

        def build():
            j = np.arange(-(2 * reach + 1), 2 * reach + 2)
            levels = round_saturate(j / 2, reach)
            return self.apply_levels(levels, in_exp) * scale

        return self._memo(("half", in_exp, reach, scale), build)

    def _memo(self, key, build):
        table = self._level_tables.get(key)
        if table is None:
            table = build()
            table.setflags(write=False)
            self._level_tables[key] = table
        return table


def build_lut(
    kind: str,
    resolution: int = FORMATS["lut_resolution"],
    input_range: tuple = (FORMATS["lut_lo"], FORMATS["lut_hi"]),
    out_exp: int = FORMATS["act_exp"],
) -> ActivationLut:
    """Sample sigmoid or tanh into a fixed-point table.

    resolution must be a power of two (it maps to a BRAM address width).
    """
    if resolution < 2 or resolution & (resolution - 1):
        raise ValueError(f"resolution must be a power of two, got {resolution}")
    if kind not in ("sigmoid", "tanh"):
        raise ValueError(f"unknown activation kind {kind!r}")
    lo, hi = float(input_range[0]), float(input_range[1])
    if not lo < hi:
        raise ValueError("empty input range")
    h = (hi - lo) / resolution
    x = lo + np.arange(resolution) * h
    max_level = int(round(2.0**-out_exp))

    def q(vals):
        return round_saturate(vals * 2.0**-out_exp, max_level)

    if kind == "sigmoid":
        lev = q(1.0 / (1.0 + np.exp(-x)))
    else:
        lev = q(np.tanh(x))
        # force exact odd symmetry about the zero sample
        half = resolution // 2
        if x[half] == 0.0:
            lev[1:half] = -lev[resolution - 1 : half : -1]
            lev[half] = 0
    return ActivationLut(kind=kind, entries=lev, lo=lo, hi=hi, out_exp=out_exp)


# ---------------------------------------------------------------------------
# Quantized layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerFixedFormat:
    """Signal, cell and pre-activation schemes plus the activation tables
    shared by the fixed-point datapath of one layer."""

    sig_in: QuantScheme
    sig_out: QuantScheme
    cell: QuantScheme
    pre: QuantScheme
    lut_sigmoid: ActivationLut
    lut_tanh: ActivationLut

    @property
    def act_exp(self) -> int:
        return self.lut_sigmoid.out_exp


# values cast to integers in the element-wise update stay below this, with
# room for the table offset inside the int64 range
INDEX_BOUND = 2.0**62
# the reach of the widest level table built, 2 * TABLE_REACH + 1 float64
# entries (16 MB): the tanh(c) table of a fine cell step over a wide range
TABLE_REACH = 2**20


# float32's exponent range: 2^e is a normal float32 for e in [minexp, maxexp)
_F32 = np.finfo(np.float32)
# the least e for which every integer times 2^e is a float64 number
_F64_TINY = np.finfo(np.float64).minexp - np.finfo(np.float64).nmant


def _matrix_dtype(weight_bits: int, fmt: LayerFixedFormat, d: int, h: int, shifts) -> type:
    """float32 when, on each side, every partial sum of the folded product
    is an integer below 2^24 times a row factor 2^s and a normal float32:
    the worst-case accumulator (max weight level x max input level x row
    length) below 2^24, and 2^s times 1 and times that bound inside
    float32's normal range for every s of the side's row factors; else
    float64. shifts: the x side's and the h side's exponents s, per gate."""
    max_w = (1 << (weight_bits - 1)) - 1
    sides = zip((fmt.sig_in.max_level * d, fmt.sig_out.max_level * h), shifts)
    for bound, s in ((max_w * n, s) for n, s in sides):
        if bound >= 2**24 or min(s) < _F32.minexp or max(s) + bound.bit_length() > _F32.maxexp:
            return np.float64
    return np.float32


def _fold(gates, factors, dtype) -> np.ndarray:
    """The gates' levels stacked in one (4H, n) matrix of dtype, the rows of
    gate g times factors[g]: each gate is cast into its rows, then scaled
    in place, while the rows are in cache."""
    h = len(gates[0])
    out = np.empty((4 * h,) + np.shape(gates[0])[1:], dtype)
    for rows, lev, k in zip(np.split(out, 4), gates, factors):
        rows[...] = lev
        rows *= k
    return out


class QuantizedLstmLayer:
    """Integer-level twin of LstmLayerParams, compiled once for stepping.

    Gate matrices are stacked (i, f, o, c) into (4H, D) / (4H, H) blocks so a
    whole step is two matrix products. Each stacked row carries its factor:
    wx and wh hold each weight level times its row's power of two, wx_half
    and wh_half, which bring the row's product to half-levels (twice the
    pre-activation scale). So a product of wx or wh with integer levels is
    already the gates' half-level sums, and a step multiplies by no scale.
    The matrices are float32 when every partial sum of each side's product
    is an integer below 2^24 times its row factor and a normal float32,
    where float32 holds it exactly (_matrix_dtype), and float64 otherwise;
    there is one copy either way, and wx_lev and wh_lev read the levels
    back by the exact division. Construction also verifies that the
    combined gate accumulator stays below 2^52, so the float64 element-wise
    arithmetic is exact, and that the values the element-wise update casts
    to integers stay below 2^62 (INDEX_BOUND). Every other scale a step
    needs is precomputed here, as a per-row offset or factor or folded into
    an activation table.

    wx_lev and wh_lev may be given stacked, (4H, D) and (4H, H), or each as
    its four gates' (H, D) and (H, H) levels in stacking order; the other
    levels are stacked, peep_lev (3, H) and bias_lev (4, H).
    """

    def __init__(self, wx_lev, wh_lev, peep_lev, bias_lev, wx_exp: tuple, wh_exp: tuple,
                 peep_exp: tuple, bias_exp: tuple, weight_bits: int, bias_bits: int,
                 fmt: LayerFixedFormat):
        self.peep_lev, self.bias_lev = peep_lev, bias_lev
        self.wx_exp, self.wh_exp, self.peep_exp, self.bias_exp = wx_exp, wh_exp, peep_exp, bias_exp
        self.weight_bits, self.bias_bits, self.fmt = weight_bits, bias_bits, fmt
        gx, gh = (np.split(w, 4) if isinstance(w, np.ndarray) else w for w in (wx_lev, wh_lev))
        h, d = np.shape(gx[0])
        ex, eh = fmt.sig_in.step_exp, fmt.sig_out.step_exp
        ec, ep, e_act = fmt.cell.step_exp, fmt.pre.step_exp, fmt.act_exp
        accs = []
        for g in range(4):
            scales = [wx_exp[g] + ex, wh_exp[g] + eh, bias_exp[g]]
            if g < 3:  # i, f, o carry a peephole term
                scales.append(peep_exp[g] + ec)
            accs.append(min(scales))
        self.gate_acc_exp = tuple(accs)
        # f*c and i*c~ products -> cell scale; o*tanh(c) -> output signal
        # scale; each is folded into the table of f, c~ and tanh(c)
        self.k_fc = 2.0**e_act
        self.k_ic = 2.0 ** (2 * e_act - ec)
        self.k_h = 2.0 ** (2 * e_act - eh)
        # half-widths of the level tables on the pre-activation and cell
        # sides: beyond its reach a table clamps to its end entries, so a
        # level table that wide serves every level of the scheme
        luts = (fmt.lut_sigmoid, fmt.lut_tanh)
        self.pre_reach = min(fmt.pre.max_level, max(lut.reach(ep) for lut in luts))
        self.cell_reach = min(fmt.cell.max_level, fmt.lut_tanh.reach(ec))
        self._check_ranges(d, h)

        # the row factors: the step of each gate's x- and h-side terms at
        # half-levels, 2^s per gate
        shifts = ([e + ex - ep + 1 for e in wx_exp], [e + eh - ep + 1 for e in wh_exp])
        if min(min(s) for s in shifts) < _F64_TINY:
            raise ValueError("the steps of the formats and tensors make a row factor below "
                             "the float64 range")
        dtype = _matrix_dtype(weight_bits, fmt, d, h, shifts)
        fx, fh = ([math.ldexp(1.0, e) for e in s] for s in shifts)
        self.wx = _fold(gx, fx, dtype)
        self.wh = _fold(gh, fh, dtype)
        self.wx_half = np.repeat(fx, h)
        self.wh_half = np.repeat(fh, h)
        # per stacked row, the bias at half-levels; per peephole row (3, H),
        # the peephole level at the half-level scale
        self.bias_half = self.bias_lev.ravel() * 2.0 ** (np.repeat(bias_exp, h) - ep + 1)
        self.peep_half = self.peep_lev * 2.0 ** (np.array(peep_exp)[:, None] + ec - ep + 1)
        self._tables = None
        self._label_inputs = None

    @classmethod
    def from_tensors(cls, tensors, weight_bits: int, bias_bits: int, fmt: LayerFixedFormat):
        """The layer of the tensors, name -> (levels, step_exp) for every
        name of LAYER_GROUPS: each group's gates stack in order, the
        matrices straight into the compiled matrices, row factors and all."""
        kw = {}
        for group, names in LAYER_GROUPS.items():
            gates = [tensors[n][0] for n in names]
            kw[f"{group}_lev"] = gates if group in ("wx", "wh") else np.vstack(gates)
            kw[f"{group}_exp"] = tuple(tensors[n][1] for n in names)
        return cls(**kw, weight_bits=weight_bits, bias_bits=bias_bits, fmt=fmt)

    @property
    def wx_lev(self) -> np.ndarray:
        """The stacked (4H, D) x-side weight levels, in the matrix dtype: wx
        divided by its row factors, which is exact. Made on each read."""
        return np.divide(self.wx, self.wx_half[:, None], dtype=self.wx.dtype)

    @property
    def wh_lev(self) -> np.ndarray:
        """The stacked (4H, H) h-side weight levels, as wx_lev."""
        return np.divide(self.wh, self.wh_half[:, None], dtype=self.wh.dtype)

    def tensors(self) -> dict:
        """name -> (levels, step_exp) for every tensor of the layer, in
        LAYER_GROUPS order, the levels as views of the stacked levels: the
        inverse of from_tensors."""
        shapes = layer_shapes(self.input_dim, self.hidden)
        out = {}
        for group, names in LAYER_GROUPS.items():
            parts = np.split(getattr(self, f"{group}_lev"), len(names))
            for name, lev, exp in zip(names, parts, getattr(self, f"{group}_exp")):
                out[name] = (lev.reshape(shapes[name]), exp)
        return out

    @property
    def hidden(self) -> int:
        return self.wh.shape[1]

    @property
    def input_dim(self) -> int:
        return self.wx.shape[1]

    def tables(self) -> tuple:
        """The tables of one element-wise update, fetched on first use from
        the shared activation tables: sigmoid (i and o), sigmoid times k_fc
        (f) and tanh times k_ic (c~), read by half-levels of the
        pre-activation; and tanh times k_h (tanh(c)), read by cell levels.
        All are exact, since every k is a power of two."""
        if self._tables is None:
            fmt = self.fmt
            ep, ec = fmt.pre.step_exp, fmt.cell.step_exp
            sig, tanh = fmt.lut_sigmoid, fmt.lut_tanh
            self._tables = (
                sig.half_level_table(ep, self.pre_reach),
                sig.half_level_table(ep, self.pre_reach, self.k_fc),
                tanh.half_level_table(ep, self.pre_reach, self.k_ic),
                tanh.level_table(ec, self.cell_reach, self.k_h),
            )
        return self._tables

    @property
    def one_hot(self) -> int:
        """The level of 1.0 in the input scheme: a one-hot input's nonzero
        level."""
        return round(1.0 / self.fmt.sig_in.step)

    def label_inputs(self) -> np.ndarray:
        """The label table: the (4H, D) input halves at half-levels of the D
        one-hot inputs, column k that of the input at level one_hot in row
        k, as fixed_step_levels computes it from the product. Built on first
        use and kept on the layer; it is read-only."""
        if self._label_inputs is None:
            eye = np.eye(self.input_dim) * self.one_hot
            table = input_half_levels(self, eye)
            table.setflags(write=False)
            self._label_inputs = table
        return self._label_inputs

    def _check_ranges(self, d: int, h: int):
        """The gate accumulators of a layer with input width d and h cells
        must stay exact in float64, and the values the element-wise update
        casts to integers (the doubled pre-activations) or saturates after a
        product (the doubled cell and output, bounded the same way for
        margin) must stay below INDEX_BOUND. The tanh(c) table, read by cell
        levels, may reach TABLE_REACH levels at most."""
        fmt = self.fmt
        max_w = (1 << (self.weight_bits - 1)) - 1
        max_b = (1 << (self.bias_bits - 1)) - 1
        ex, eh = fmt.sig_in.step_exp, fmt.sig_out.step_exp
        ec, ep = fmt.cell.step_exp, fmt.pre.step_exp
        pre = 0.0
        for g in range(4):
            e = self.gate_acc_exp[g]
            bound = max_w * fmt.sig_in.max_level * d * 2.0 ** (self.wx_exp[g] + ex - e)
            bound += max_w * fmt.sig_out.max_level * h * 2.0 ** (self.wh_exp[g] + eh - e)
            bound += max_b * 2.0 ** (self.bias_exp[g] - e)
            if g < 3:
                bound += max_w * fmt.cell.max_level * 2.0 ** (self.peep_exp[g] + ec - e)
            if bound >= 2.0**52:
                raise ValueError("fixed-point accumulator would exceed exact float64 range")
            pre = max(pre, bound * 2.0 ** (e - ep))
        ls, lt = (float(np.abs(lut.entries).max()) for lut in (fmt.lut_sigmoid, fmt.lut_tanh))
        m_c = fmt.cell.max_level
        doubled = {
            "pre-activation": 2 * pre,
            "cell": 2 * max(m_c, ls * m_c * self.k_fc + ls * lt * self.k_ic),
            "output": 2 * ls * lt * self.k_h,
        }
        for what, bound in doubled.items():
            if bound >= INDEX_BOUND:
                raise ValueError(
                    f"the doubled {what} can reach {bound:.4g}, at or above the "
                    f"2^62 bound of the element-wise update's integer cast"
                )
        if self.cell_reach > TABLE_REACH:
            raise ValueError(
                f"the tanh(c) table read at cell step 2^{ec} would hold "
                f"{2 * self.cell_reach + 1} levels, above the {2 * TABLE_REACH + 1} "
                f"of the widest level table"
            )


def layer_formats(formats, n_layers: int) -> list:
    """The LayerFixedFormat of each layer of an n_layers stack, from a
    formats table keyed like FORMATS: layer 0 reads signals at sig_in_exp
    and every later layer the sig_exp output of the one below; the
    pre-activation scheme is PRE_BITS wide, and all layers share one
    sigmoid/tanh table pair. _check_formats checks the table first."""
    f = formats
    _check_formats(f)
    signal = QuantScheme(f["signal_bits"], 2.0 ** f["sig_exp"])
    first = QuantScheme(f["signal_bits"], 2.0 ** f["sig_in_exp"])
    cell = QuantScheme(f["cell_bits"], 2.0 ** f["cell_exp"])
    pre = QuantScheme(PRE_BITS, 2.0 ** f["pre_exp"])
    luts = [build_lut(kind, f["lut_resolution"], (f["lut_lo"], f["lut_hi"]), f["act_exp"])
            for kind in ("sigmoid", "tanh")]
    return [LayerFixedFormat(first if li == 0 else signal, signal, cell, pre, *luts)
            for li in range(n_layers)]


# the values layer_formats takes, inclusive, keyed like FORMATS: widths
# whose levels are float64 integers, exponents e with 2**e a positive
# float, act_exp <= -1 so that table entries lie between 0 and 1, no more
# table entries than pre-activation levels, and finite table ends. An
# integer range takes integers only.
_BITS, _EXP, _REAL = (2, 53), (-1074, 1023), (-sys.float_info.max, sys.float_info.max)
_FORMAT_RANGES = {
    "weight_bits": _BITS,
    "bias_bits": _BITS,
    "signal_bits": _BITS,
    "cell_bits": _BITS,
    "sig_in_exp": _EXP,
    "sig_exp": _EXP,
    "cell_exp": _EXP,
    "pre_exp": _EXP,
    "act_exp": (-1074, -1),
    "lut_resolution": (2, 2**PRE_BITS),
    "lut_lo": _REAL,
    "lut_hi": _REAL,
}


def _check_formats(f):
    """Raise ValueError naming the first formats.<key> of f outside its
    _FORMAT_RANGES range, then an act_exp whose table entries pass 2^53, a
    lut_resolution that is not a power of two, lut_lo >= lut_hi, or a
    pre-activation step 2^pre_exp that spans the table range (every
    pre-activation would then be 0)."""
    for key, (lo, hi) in _FORMAT_RANGES.items():
        v = f[key]
        kind = numbers.Integral if isinstance(lo, int) else numbers.Real
        if isinstance(v, bool) or not isinstance(v, kind) or not lo <= v <= hi:
            what = "an integer" if kind is numbers.Integral else "a number"
            raise ValueError(f"formats.{key} {v!r:.40} is not {what} in {lo:g}..{hi:g}")
    res, lut_lo, lut_hi = f["lut_resolution"], f["lut_lo"], f["lut_hi"]
    if -f["act_exp"] > _BITS[1]:
        raise ValueError(f"formats.act_exp {f['act_exp']} puts table entries past 2^53, "
                         f"where float64 integers end")
    if res & (res - 1):
        raise ValueError(f"formats.lut_resolution {res} is not a power of two")
    if not lut_lo < lut_hi:
        raise ValueError(f"formats.lut_lo {lut_lo!r} is not below formats.lut_hi {lut_hi!r}")
    if not 2.0 ** f["pre_exp"] < lut_hi - lut_lo:
        raise ValueError(f"formats.pre_exp {f['pre_exp']} makes one pre-activation step "
                         f"span the lut_lo..lut_hi table range")


@dataclass
class QuantizedOutputLayer:
    w_lev: np.ndarray
    b_lev: np.ndarray
    w_exp: int
    b_exp: int
    weight_bits: int
    bias_bits: int
    sig_in: QuantScheme
    # the real scale of a matvec accumulator, and the bias in reals
    w_scale: float = field(init=False, repr=False)
    b_real: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.w_scale = 2.0 ** (self.w_exp + self.sig_in.step_exp)
        self.b_real = self.b_lev * 2.0**self.b_exp

    @classmethod
    def from_tensors(cls, tensors, weight_bits: int, bias_bits: int, sig_in: QuantScheme):
        """The layer of W and b given as name -> (levels, step_exp); sig_in
        is the scheme of the last LSTM layer's output, which it reads."""
        (w_lev, w_exp), (b_lev, b_exp) = tensors["W"], tensors["b"]
        return cls(w_lev, b_lev, w_exp, b_exp, weight_bits, bias_bits, sig_in)

    def tensors(self) -> dict:
        """name -> (levels, step_exp) of W and b: the inverse of from_tensors."""
        return {"W": (self.w_lev, self.w_exp), "b": (self.b_lev, self.b_exp)}

    def logits(self, h_lev: np.ndarray) -> np.ndarray:
        """Dequantized logits; this is where data leaves the fixed datapath."""
        return self.logits_from_acc(self.w_lev @ np.asarray(h_lev, dtype=np.float64))

    def logits_from_acc(self, acc: np.ndarray) -> np.ndarray:
        """Scale the integer matvec accumulator to reals and add the bias."""
        z = acc * self.w_scale
        return z + (self.b_real[:, None] if z.ndim == 2 else self.b_real)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _sigmoid(z):
    """1 / (1 + exp(-z)), in place."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _col(b, x):
    return b[:, None] if x.ndim == 2 else b


def column_products(w, x):
    """w @ x one column at a time: for a (D,) x, w @ x; for a (D, k) x, k
    back-to-back one-column products (GEMVs), column j the bits of
    w @ x[:, j] whatever k is, with w read into cache once (see the module
    docstring). The (len(w), k) result is the transpose of a C-contiguous
    (k, len(w)) array."""
    if x.ndim == 1:
        return w @ x
    xs = np.ascontiguousarray(x.T)
    out = np.empty((len(xs), len(w)), dtype=np.result_type(w, xs))
    for x_j, out_j in zip(xs, out):
        np.matmul(w, x_j, out=out_j)
    return out.T


def float_step(p: LstmLayerParams, x, h, c, labels=None, recurrent=None):
    """One float step of layer p from the state h, c over the input x:
    shapes (D,)/(H,) or (D, B)/(H, B). A one-hot input may come as its (B,)
    labels instead, with x None: its x-side is the labels' columns of the
    stacked input matrix, the bits of the one-hot product. Otherwise the
    x-side is tiled_product, whose tiles at H = 256 are the four gate
    matrices. The recurrent half is column_products(wh, h), so a column's
    is the same whatever batch makes it; recurrent, if given, is that
    product made before, (4H,) or (4H, B), and the step then skips only
    that product. Returns (h', c')."""
    s = p.stacked()
    z = s["wx"].take(labels, axis=1) if labels is not None else tiled_product(s["wx"], x)
    z += column_products(s["wh"], h) if recurrent is None else recurrent
    return float_update(p, z, c)


def float_block(p: LstmLayerParams, x, h, c):
    """k consecutive float steps of layer p over one stream.

    x is (D, k), column t the input at step t; h and c are the (H,) state
    before the first step. The x-side of all k steps is column_products on
    the stacked input matrix, each column the product a single step makes,
    so the matrix stays in cache and the bits are those of k calls of
    float_step. Returns the (H, k) outputs and the last cell.
    """
    s = p.stacked()
    z = column_products(s["wx"], np.asarray(x, dtype=np.float64)).T
    out = np.empty((len(z), p.hidden))
    for z_t, out_t in zip(z, out):
        z_t += s["wh"] @ h
        h, c = float_update(p, z_t, c)
        out_t[:] = h
    return out.T, c


def float_update(p: LstmLayerParams, z, c):
    """The element-wise half of a float step.

    z holds the four gates' x-side plus h-side sums, stacked (i, f, o, c)
    as (4H,) or (4H, B); it is updated in place. Each pre-activation is
    (x-side + h-side) + peephole + bias, summed in that order, then the
    gates, the cell and the output. Returns (h', c')."""
    s = p.stacked()
    z = z.reshape((4, p.hidden) + z.shape[1:])
    peep, bias = s["peep"], s["bias"]
    if z.ndim == 3:
        peep, bias = peep[:, :, None], bias[:, :, None]
    i_f = z[:2]
    i_f += peep[:2] * c
    i_f += bias[:2]
    i, f = _sigmoid(i_f)
    c_tilde = z[3]
    c_tilde += bias[3]
    np.tanh(c_tilde, out=c_tilde)
    c_new = f * c
    c_new += i * c_tilde
    o = z[2]
    o += peep[2] * c_new
    o += bias[2]
    h_new = _sigmoid(o) * np.tanh(c_new)
    return h_new, c_new


def tiled_product(w, x):
    """w @ x, in TILE_ROWS-row tiles where x has TILE_COLUMNS columns."""
    if x.ndim == 1 or x.shape[1] not in TILE_COLUMNS or len(w) <= TILE_ROWS:
        return w @ x
    out = np.empty((len(w), x.shape[1]), dtype=w.dtype)
    for r in range(0, len(w), TILE_ROWS):
        np.matmul(w[r : r + TILE_ROWS], x, out=out[r : r + TILE_ROWS])
    return out


def input_half_levels(q: QuantizedLstmLayer, x_lev, product=tiled_product):
    """The input half of the stacked (i, f, o, c) gate accumulators at
    half-levels: product(q.wx, x_lev), whose rows carry their factors
    wx_half, plus bias_half, one offset per row. x_lev is (D,) or (D, k)
    for any number of columns, which may be batch members or consecutive
    time steps; the result is float64, (4H,) or (4H, k). The product runs
    in the layer's matrix dtype."""
    ax = product(q.wx, np.asarray(x_lev, dtype=q.wx.dtype))
    return ax + _col(q.bias_half, ax)


def fixed_step_levels(q: QuantizedLstmLayer, x_lev, h_lev, c_lev, labels=None,
                      product=tiled_product, recurrent=None):
    """One fixed-point step on integer levels.

    x_lev is in sig_in, h_lev in sig_out, c_lev in the cell scheme. Returns
    (h_lev', c_lev') in the same schemes. Shapes (D,)/(H,) or (D,B)/(H,B).
    A one-hot input may come as its (B,) labels instead, with x_lev None:
    column b is q.one_hot in row labels[b], and its input half is read from
    the label table (q.label_inputs()), with the bits of the product. Every
    other matrix product is product(w, x). recurrent, if given, is the
    recurrent product product(q.wh, h_lev) made before, (4H,) or (4H, B)
    in the matrix dtype; the step then skips only that product.
    """
    if labels is None:
        x2 = input_half_levels(q, x_lev, product)
    else:
        x2 = q.label_inputs().take(labels, axis=1)
    return _step(q, x2, h_lev, c_lev, product, recurrent)


def fixed_block_levels(q: QuantizedLstmLayer, x_lev, h_lev, c_lev, product=tiled_product):
    """k consecutive fixed-point steps of one layer over one stream.

    x_lev is (D, k), column t the input at step t; h_lev and c_lev are the
    (H,) state before the first step. The input half of all k steps is one
    product, brought to half-levels once. Returns the (H, k) outputs and the
    last cell, the bits of k calls of fixed_step_levels (see the module
    docstring). Every matrix product is product(w, x).
    """
    # row t: step t's input half, at half-levels
    ax = np.ascontiguousarray(input_half_levels(q, x_lev, product).T)
    out = np.empty((q.hidden, len(ax)))
    for t, x2 in enumerate(ax):
        h_lev, c_lev = _step(q, x2, h_lev, c_lev, product)
        out[:, t] = h_lev
    return out, c_lev


def _step(q: QuantizedLstmLayer, x2, h_lev, c_lev, product, recurrent=None):
    """One step from its input half x2 at half-levels, updated in place:
    adds the recurrent half there and runs the element-wise update. The
    recurrent half is the recurrent product, product(q.wh, h_lev) unless
    given: q.wh's rows carry their factors wh_half, so the product is
    already at half-levels, whether made here, read from the character
    LM's memo (engine.RnnCharLm) or summed in the PE arrays' clock order
    (hwsim.clock_order_product)."""
    ah = recurrent
    if ah is None:
        ah = product(q.wh, np.asarray(h_lev, dtype=q.wh.dtype))
    x2 += ah
    return elementwise_update(q, x2, c_lev)


def lookup(table, x):
    """Read a level table, or a half-level table, at x: the entry at
    trunc(x) + len(table) // 2, the index clipped to the table's ends.

    For a level table (ActivationLut.level_table) x holds integer levels,
    and clipping saturates them to the table's reach. For a half-level
    table (ActivationLut.half_level_table) x holds real levels at twice
    their scale, and the one cast is also the rounding. The cast is exact
    below INDEX_BOUND, which QuantizedLstmLayer checks.
    """
    j = x.astype(np.intp)
    j += len(table) // 2
    return table.take(j, mode="clip")


def elementwise_update(q: QuantizedLstmLayer, x2, c_lev):
    """The element-wise half of a fixed-point step.

    x2 holds the four gate pre-activations stacked (i, f, o, c) as (4H,) or
    (4H, B), bias included and peepholes not yet added, at half-levels
    (twice the pre-activation scale); it is updated in place. Adds the
    peepholes, re-quantizes the pre-activations, applies the activation
    tables and updates the cell and output. Returns (h_lev', c_lev').
    """
    sig, sig_f, tanh_ic, tanh_h = q.tables()
    c_lev = np.asarray(c_lev, dtype=np.float64)
    peep = q.peep_half if c_lev.ndim == 1 else q.peep_half[:, :, None]

    # i, f and c~ in one cast over the stacked rows; the o rows are read
    # again once the new cell's peephole is in
    x2 = x2.reshape((4, q.hidden) + x2.shape[1:])
    x2[:2] += peep[:2] * c_lev
    j = x2.astype(np.intp)
    j += len(sig) // 2
    i_lev = sig.take(j[0], mode="clip")
    f_k = sig_f.take(j[1], mode="clip")
    ct_k = tanh_ic.take(j[3], mode="clip")

    # c_t = f*c_{t-1} + i*c~, both products at the cell scale through the
    # tables' factors
    cell = f_k * c_lev
    cell += i_lev * ct_k
    c_new = round_saturate(cell, q.fmt.cell.max_level)

    x_o = peep[2] * c_new
    x_o += x2[2]
    h = lookup(sig, x_o) * lookup(tanh_h, c_new)
    h_new = round_saturate(h, q.fmt.sig_out.max_level)
    return h_new, c_new


def lstm_step(params: LstmLayerParams, x, state: LstmState, mode: str = "float", labels=None,
              recurrent=None):
    """One step of the six-equation recurrence.

    mode "float": x and state are real-valued; returns (h, LstmState). A
    one-hot input may come as its labels instead, with x None (float_step).
    mode "fixed": x is real (quantized to the layer's input signal scheme);
    state holds integer levels; the returned h is the dequantized layer
    output while the state keeps the exact levels.
    In either mode recurrent, if given, is the step's recurrent product
    made before, and the step skips only that product.
    """
    if mode == "float":
        if labels is None:
            x = np.asarray(x, dtype=np.float64)
            _check_dims(params, x, state)
        h_new, c_new = float_step(params, x, state.h, state.c, labels, recurrent)
        return h_new, LstmState(h=h_new, c=c_new)
    if mode == "fixed":
        q = params.quantized
        if q is None:
            raise ValueError("fixed mode requires quantized parameters")
        x = np.asarray(x, dtype=np.float64)
        _check_dims(params, x, state)
        x_lev = quantize(x, q.fmt.sig_in).levels
        h_lev, c_lev = fixed_step_levels(q, x_lev, state.h, state.c, recurrent=recurrent)
        h_real = h_lev * q.fmt.sig_out.step
        return h_real, LstmState(h=h_lev, c=c_lev)
    raise ValueError(f"unknown mode {mode!r}")


def _check_dims(params, x, state):
    if x.shape[0] != params.input_dim:
        raise ValueError(
            f"input dim {x.shape[0]} does not match layer input {params.input_dim}"
        )
    if state.h.shape[0] != params.hidden:
        raise ValueError("state dimension mismatch")


def count_params_dims(layer_dims: Sequence[tuple], output_dims: Optional[tuple]) -> int:
    """The parameter count of a network of LSTM layers given as (input,
    hidden) pairs and an output layer given as (hidden, labels), if any."""
    shapes = [s for d, h in layer_dims for s in layer_shapes(d, h).values()]
    if output_dims is not None:
        shapes += [output_dims[::-1], output_dims[1:]]
    return sum(math.prod(s) for s in shapes)
