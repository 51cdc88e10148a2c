"""LSTM engine with peephole connections, in float and fixed-point modes.

The float path is the numerical reference. The fixed path evaluates the same
six recurrence equations on integer levels: matrix-vector products accumulate
in wide integers, the accumulated pre-activation is re-quantized to a 16-bit
scheme, activations go through lookup tables, the cell is kept in a 16-bit
scheme and the layer output in an 8-bit signal scheme. Those are the only
rounding points.

Each QuantizedLstmLayer is compiled once, when it is built. Its weight
levels are stored in float32 when every partial sum of one side's
matrix-vector product stays below 2^24, where float32 holds integers
exactly, and in float64 otherwise; the gate accumulators and the
element-wise arithmetic are float64 (exact below 2^53). Every power-of-two
scale of a step is precomputed on the layer, and the activation tables are
read through level-indexed tables (ActivationLut.level_table), so a step
does no exponent arithmetic. Both halves of a step, the gate
accumulation (gate_accumulators) and the element-wise update
(elementwise_update), are shared with the hardware emulation, which can
also fill the gate accumulators by its clock-order PE schedule (see hwsim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .quant import QuantScheme, quantize, round_half_away

__all__ = [
    "LstmLayerParams",
    "OutputLayerParams",
    "LstmState",
    "ActivationLut",
    "build_lut",
    "LayerFixedFormat",
    "default_format",
    "QuantizedLstmLayer",
    "QuantizedOutputLayer",
    "lstm_step",
    "fixed_step_levels",
    "gate_accumulators",
    "elementwise_update",
    "count_params",
    "softmax",
]

GATE_NAMES = ("i", "f", "o", "c")
PEEP_NAMES = ("ci", "cf", "co")


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

    def __post_init__(self):
        h, d = self.W_xi.shape
        for name in ("W_xf", "W_xo", "W_xc"):
            if getattr(self, name).shape != (h, d):
                raise ValueError(f"{name} shape mismatch")
        for name in ("W_hi", "W_hf", "W_ho", "W_hc"):
            if getattr(self, name).shape != (h, h):
                raise ValueError(f"{name} shape mismatch")
        for name in ("w_ci", "w_cf", "w_co", "b_i", "b_f", "b_o", "b_c"):
            if getattr(self, name).shape != (h,):
                raise ValueError(f"{name} shape mismatch")

    @property
    def hidden(self) -> int:
        return self.W_xi.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_xi.shape[1]

    def input_mats(self):
        return (self.W_xi, self.W_xf, self.W_xo, self.W_xc)

    def recurrent_mats(self):
        return (self.W_hi, self.W_hf, self.W_ho, self.W_hc)

    def peepholes(self):
        return (self.w_ci, self.w_cf, self.w_co)

    def biases(self):
        return (self.b_i, self.b_f, self.b_o, self.b_c)

    def n_params(self) -> int:
        h, d = self.hidden, self.input_dim
        return 4 * h * (d + h) + 7 * h


@dataclass
class OutputLayerParams:
    """Fully connected output layer feeding the softmax."""

    W: np.ndarray
    b: np.ndarray
    quantized: Optional["QuantizedOutputLayer"] = None

    def __post_init__(self):
        if self.W.shape[0] != self.b.shape[0]:
            raise ValueError("output bias length must match label count")

    @property
    def labels(self) -> int:
        return self.W.shape[0]

    @property
    def hidden(self) -> int:
        return self.W.shape[1]

    def n_params(self) -> int:
        return self.W.size + self.b.size


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

    def _index(self, u):
        idx = np.floor(u + 0.5)
        return np.clip(idx, 0, self.n - 1).astype(np.int64)

    def apply_real(self, x):
        """Table lookup for real inputs; returns real outputs."""
        u = (np.asarray(x, dtype=np.float64) - self.lo) / self.spacing
        return self.entries[self._index(u)] * 2.0**self.out_exp

    def apply_levels(self, levels, in_exp: int):
        """Table lookup for integer levels at scale 2**in_exp.

        Returns integer entry levels (at scale 2**out_exp). The index
        computation is exact: levels times a power of two, offset by a
        dyadic constant.
        """
        u = (np.asarray(levels, dtype=np.float64) * 2.0**in_exp - self.lo) / self.spacing
        return self.entries[self._index(u)].astype(np.float64)

    def reach(self, in_exp: int) -> int:
        """A level count beyond which inputs at scale 2**in_exp clamp to the
        end entries: apply_levels(l) == apply_levels(sign(l) * reach) for
        every |l| >= reach."""
        return max(1, math.ceil(max(self.hi, -self.lo) * 2.0**-in_exp))

    def level_table(self, in_exp: int, max_level: int) -> np.ndarray:
        """apply_levels(arange(-max_level, max_level + 1), in_exp): the entry
        for level l sits at index l + max_level, exact by construction.

        Built on first use and kept on this table, so every layer sharing it
        shares the result; it is read-only.
        """
        key = (in_exp, max_level)
        table = self._level_tables.get(key)
        if table is None:
            table = self.apply_levels(np.arange(-max_level, max_level + 1), in_exp)
            table.setflags(write=False)
            self._level_tables[key] = table
        return table


def build_lut(
    kind: str,
    resolution: int = 1024,
    input_range: tuple = (-8.0, 8.0),
    out_exp: int = -8,
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
        return np.clip(round_half_away(vals * 2.0**-out_exp), -max_level, max_level)

    if kind == "sigmoid":
        lev = q(1.0 / (1.0 + np.exp(-x)))
    else:
        lev = q(np.tanh(x))
        # force exact odd symmetry about the zero sample
        half = resolution // 2
        if x[half] == 0.0:
            lev[1:half] = -lev[resolution - 1 : half : -1]
            lev[half] = 0
    return ActivationLut(kind=kind, entries=lev.astype(np.int32), lo=lo, hi=hi, out_exp=out_exp)


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


@dataclass
class QuantizedLstmLayer:
    """Integer-level twin of LstmLayerParams, compiled once for stepping.

    Gate matrices are stacked (i, f, o, c) into (4H, D) / (4H, H) blocks so a
    whole step is two matrix products. Levels hold exact integers. They are
    stored as float32 when each side's worst-case accumulator (max weight
    level x max input level x row length) is below 2^24, so that every
    partial sum of the matvec is an exact float32 integer, and as float64
    otherwise; there is one copy either way. Construction also verifies that
    the combined gate accumulator stays below 2^52, so the float64
    element-wise arithmetic is exact. Every scale a step needs is
    precomputed here.
    """

    wx_lev: np.ndarray
    wh_lev: np.ndarray
    peep_lev: np.ndarray
    bias_lev: np.ndarray
    wx_exp: tuple
    wh_exp: tuple
    peep_exp: tuple
    bias_exp: tuple
    weight_bits: int
    bias_bits: int
    fmt: LayerFixedFormat
    gate_acc_exp: tuple = field(init=False)
    # per stacked row: the power-of-two shifts that align the x- and h-side
    # products to their gate's accumulator scale, and the aligned bias
    wx_shift: np.ndarray = field(init=False, repr=False)
    wh_shift: np.ndarray = field(init=False, repr=False)
    bias_acc: np.ndarray = field(init=False, repr=False)
    # per stacked row: accumulator scale -> pre-activation scale; per
    # peephole row (3, H): the peephole level at the pre-activation scale
    pre_scale: np.ndarray = field(init=False, repr=False)
    peep_pre: np.ndarray = field(init=False, repr=False)
    # f*c and i*c~ products -> cell scale; o*tanh(c) -> output signal scale
    k_fc: float = field(init=False, repr=False)
    k_ic: float = field(init=False, repr=False)
    k_h: float = field(init=False, repr=False)
    # half-widths of the level tables on the pre-activation and cell sides
    pre_reach: int = field(init=False, repr=False)
    cell_reach: int = field(init=False, repr=False)
    _tables: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        fmt = self.fmt
        ex, eh = fmt.sig_in.step_exp, fmt.sig_out.step_exp
        ec, ep, e_act = fmt.cell.step_exp, fmt.pre.step_exp, fmt.act_exp
        accs = []
        for g in range(4):
            scales = [self.wx_exp[g] + ex, self.wh_exp[g] + eh, self.bias_exp[g]]
            if g < 3:  # i, f, o carry a peephole term
                scales.append(self.peep_exp[g] + ec)
            accs.append(min(scales))
        self.gate_acc_exp = tuple(accs)
        self._check_accumulator_bound()
        h, d = self.hidden, self.input_dim
        max_w = (1 << (self.weight_bits - 1)) - 1
        side_bound = max(max_w * fmt.sig_in.max_level * d, max_w * fmt.sig_out.max_level * h)
        dtype = np.float32 if side_bound < 2**24 else np.float64
        self.wx_lev = np.asarray(self.wx_lev, dtype=dtype)
        self.wh_lev = np.asarray(self.wh_lev, dtype=dtype)

        row_acc_exp = np.repeat(accs, h)
        self.wx_shift = 2.0 ** (np.repeat(self.wx_exp, h) + ex - row_acc_exp)
        self.wh_shift = 2.0 ** (np.repeat(self.wh_exp, h) + eh - row_acc_exp)
        self.bias_acc = self.bias_lev.ravel() * 2.0 ** (np.repeat(self.bias_exp, h) - row_acc_exp)
        self.pre_scale = 2.0 ** (row_acc_exp - ep)
        self.peep_pre = self.peep_lev * 2.0 ** (np.array(self.peep_exp)[:, None] + ec - ep)
        self.k_fc = 2.0**e_act
        self.k_ic = 2.0 ** (2 * e_act - ec)
        self.k_h = 2.0 ** (2 * e_act - eh)
        # beyond its reach a table clamps to its end entries, so a level
        # table that wide serves every level of the scheme
        luts = (fmt.lut_sigmoid, fmt.lut_tanh)
        self.pre_reach = min(fmt.pre.max_level, max(lut.reach(ep) for lut in luts))
        self.cell_reach = min(fmt.cell.max_level, fmt.lut_tanh.reach(ec))

    @property
    def hidden(self) -> int:
        return self.wh_lev.shape[1]

    @property
    def input_dim(self) -> int:
        return self.wx_lev.shape[1]

    def level_tables(self) -> tuple:
        """(sigmoid, tanh) level tables over the pre-activation and tanh over
        the cell, fetched on first use from the shared activation tables."""
        if self._tables is None:
            fmt = self.fmt
            ep, ec = fmt.pre.step_exp, fmt.cell.step_exp
            self._tables = (
                fmt.lut_sigmoid.level_table(ep, self.pre_reach),
                fmt.lut_tanh.level_table(ep, self.pre_reach),
                fmt.lut_tanh.level_table(ec, self.cell_reach),
            )
        return self._tables

    def _check_accumulator_bound(self):
        h, d = self.hidden, self.input_dim
        max_w = (1 << (self.weight_bits - 1)) - 1
        max_b = (1 << (self.bias_bits - 1)) - 1
        ex = self.fmt.sig_in.step_exp
        eh = self.fmt.sig_out.step_exp
        ec = self.fmt.cell.step_exp
        for g in range(4):
            e = self.gate_acc_exp[g]
            bound = max_w * self.fmt.sig_in.max_level * d * 2.0 ** (self.wx_exp[g] + ex - e)
            bound += max_w * self.fmt.sig_out.max_level * h * 2.0 ** (self.wh_exp[g] + eh - e)
            bound += max_b * 2.0 ** (self.bias_exp[g] - e)
            if g < 3:
                bound += max_w * self.fmt.cell.max_level * 2.0 ** (self.peep_exp[g] + ec - e)
            if bound >= 2.0**52:
                raise ValueError("fixed-point accumulator would exceed exact float64 range")

    def gate_rows(self, g: int) -> slice:
        h = self.hidden
        return slice(g * h, (g + 1) * h)


def default_format(
    sig_in_exp: int = -7,
    sig_out_exp: int = -7,
    signal_bits: int = 8,
    cell_bits: int = 16,
    cell_exp: int = -8,
    pre_exp: int = -8,
    lut_resolution: int = 1024,
    lut_range: tuple = (-8.0, 8.0),
    act_exp: int = -8,
) -> LayerFixedFormat:
    """Fixed formats used when nothing better is known: 8-bit signals,
    16-bit cells and pre-activations, 1024-entry tables over [-8, 8]."""
    return LayerFixedFormat(
        sig_in=QuantScheme(bits=signal_bits, step=2.0**sig_in_exp),
        sig_out=QuantScheme(bits=signal_bits, step=2.0**sig_out_exp),
        cell=QuantScheme(bits=cell_bits, step=2.0**cell_exp),
        pre=QuantScheme(bits=16, step=2.0**pre_exp),
        lut_sigmoid=build_lut("sigmoid", lut_resolution, lut_range, act_exp),
        lut_tanh=build_lut("tanh", lut_resolution, lut_range, act_exp),
    )


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
    return 1.0 / (1.0 + np.exp(-z))


def _float_step(p: LstmLayerParams, x, h, c):
    i = _sigmoid(p.W_xi @ x + p.W_hi @ h + _peep(p.w_ci, c) + _col(p.b_i, x))
    f = _sigmoid(p.W_xf @ x + p.W_hf @ h + _peep(p.w_cf, c) + _col(p.b_f, x))
    c_tilde = np.tanh(p.W_xc @ x + p.W_hc @ h + _col(p.b_c, x))
    c_new = f * c + i * c_tilde
    o = _sigmoid(p.W_xo @ x + p.W_ho @ h + _peep(p.w_co, c_new) + _col(p.b_o, x))
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def _peep(w, c):
    return (w[:, None] if c.ndim == 2 else w) * c


def _col(b, x):
    return b[:, None] if x.ndim == 2 else b


def gate_accumulators(q: QuantizedLstmLayer, x_lev, h_lev):
    """The stacked (i, f, o, c) gate accumulators of one step, (4H,) or
    (4H, B): the x- and h-side products, each shifted to its gate's scale,
    plus the aligned bias. The products run in the layer's weight dtype."""
    ax = q.wx_lev @ np.asarray(x_lev, dtype=q.wx_lev.dtype)
    ah = q.wh_lev @ np.asarray(h_lev, dtype=q.wh_lev.dtype)
    return ax * _col(q.wx_shift, ax) + ah * _col(q.wh_shift, ah) + _col(q.bias_acc, ax)


def fixed_step_levels(q: QuantizedLstmLayer, x_lev, h_lev, c_lev):
    """One fixed-point step on integer levels.

    x_lev is in sig_in, h_lev in sig_out, c_lev in the cell scheme. Returns
    (h_lev', c_lev') in the same schemes. Shapes (D,)/(H,) or (D,B)/(H,B).
    """
    return elementwise_update(q, gate_accumulators(q, x_lev, h_lev), c_lev)


def _saturate(levels, m):
    """Saturate integer levels to +-m in place, as quant.rescale_levels does."""
    np.maximum(levels, -m, out=levels)
    return np.minimum(levels, m, out=levels)


def _round_to_levels(x, m):
    """quant.rescale_levels after its scale change: round half away from
    zero, then saturate to +-m."""
    return _saturate(round_half_away(x), m)


def _table_index(x, reach):
    """Index of round_half_away(x) in a level table of that reach: adding
    half with the sign of x and truncating toward zero is the rounding.
    Levels beyond the reach clamp to it, which reads the same end entry."""
    idx = (x + np.copysign(0.5, x)).astype(np.intp)
    idx = _saturate(idx, reach)
    idx += reach
    return idx


def elementwise_update(q: QuantizedLstmLayer, acc, c_lev):
    """The element-wise half of a fixed-point step.

    acc holds the four gate accumulators stacked (i, f, o, c) as (4H,) or
    (4H, B), bias included, gate g at scale 2**q.gate_acc_exp[g]. Adds the
    peepholes, re-quantizes the pre-activations, applies the activation
    tables and updates the cell and output. Returns (h_lev', c_lev').
    """
    sig, tanh, tanh_cell = q.level_tables()
    c_lev = np.asarray(c_lev, dtype=np.float64)
    peep = q.peep_pre if c_lev.ndim == 1 else q.peep_pre[:, :, None]

    # i, f and c~ in one pass over the stacked rows at the pre-activation
    # scale; the o rows are indexed again once the new cell's peephole is in
    pre = (acc * _col(q.pre_scale, acc)).reshape((4, q.hidden) + acc.shape[1:])
    pre[:2] += peep[:2] * c_lev
    idx = _table_index(pre, q.pre_reach)
    i_lev, f_lev = sig[idx[:2]]
    ct_lev = tanh[idx[3]]

    # c_t = f*c_{t-1} + i*c~, both products aligned to the cell scale
    cell = f_lev * c_lev * q.k_fc + i_lev * ct_lev * q.k_ic
    c_new = _round_to_levels(cell, q.fmt.cell.max_level)

    o_lev = sig[_table_index(pre[2] + peep[2] * c_new, q.pre_reach)]
    tanh_c = tanh_cell[_table_index(c_new, q.cell_reach)]
    h_new = _round_to_levels(o_lev * tanh_c * q.k_h, q.fmt.sig_out.max_level)
    return h_new, c_new


def lstm_step(params: LstmLayerParams, x, state: LstmState, mode: str = "float"):
    """One step of the six-equation recurrence.

    mode "float": x and state are real-valued; returns (h, LstmState).
    mode "fixed": x is real (quantized to the layer's input signal scheme);
    state holds integer levels; the returned h is the dequantized layer
    output while the state keeps the exact levels.
    """
    if mode == "float":
        x = np.asarray(x, dtype=np.float64)
        _check_dims(params, x, state)
        h_new, c_new = _float_step(params, x, state.h, state.c)
        return h_new, LstmState(h=h_new, c=c_new)
    if mode == "fixed":
        q = params.quantized
        if q is None:
            raise ValueError("fixed mode requires quantized parameters")
        x = np.asarray(x, dtype=np.float64)
        _check_dims(params, x, state)
        x_lev = quantize(x, q.fmt.sig_in).levels.astype(np.float64)
        h_lev, c_lev = fixed_step_levels(q, x_lev, state.h, state.c)
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


def count_params(layers: Sequence[LstmLayerParams], output: Optional[OutputLayerParams]) -> int:
    total = sum(p.n_params() for p in layers)
    if output is not None:
        total += output.n_params()
    return total


def count_params_dims(layer_dims: Sequence[tuple], output_dims: Optional[tuple]) -> int:
    """Same count from (input, hidden) pairs, without materializing weights."""
    total = 0
    for d, h in layer_dims:
        total += 4 * h * (d + h) + 7 * h
    if output_dims is not None:
        h, labels = output_dims
        total += labels * h + labels
    return total
