"""Cycle- and bit-accurate model of the PE-array RNN accelerator.

Two PE arrays of 256 multiply-accumulate units compute the eight per-layer
matrix-vector products by the outer-product method: one input element is
broadcast per clock, so the x-side of a layer costs ceil(4/arrays) * d
cycles per row tile and the recurrent side the same with d = H. The four
gate results land in the PE output buffers (bias preloaded, zero cycles);
an element-wise post-processing unit then applies peephole products, the
lookup-table activations, and the cell/output updates. The post-processing
unit is pipelined behind the arrays and contributes no cycles.

This module adds only the PE schedule and the cycle accounting. A layer
step is the fixed datapath's own (rnn.fixed_step_levels, or
rnn.fixed_block_levels over k consecutive frames of a stream), and the
output tile scales its product as QuantizedOutputLayer.logits does.
HwConfig.fast_mac picks only the order in which each matrix product sums
its integer terms: on (the default) the fixed datapath's BLAS product
(rnn.tiled_product), so a simulated step costs what a fixed step costs
plus the cycle bookkeeping; off the arrays' clock-order outer-product
schedule (clock_order_product), tile by tile and one column per clock.
Integer addition is order-independent, so the bits match either way. A
block of k frames accounts k layer steps of cycles, as the hardware
spends them frame by frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Optional, Sequence

import numpy as np

from .rnn import (
    LstmState,
    QuantizedLstmLayer,
    QuantizedOutputLayer,
    fixed_block_levels,
    fixed_step_levels,
    layer_shapes,
    tiled_product,
    width_key,
)

__all__ = [
    "HwConfig",
    "LayerCycles",
    "CycleReport",
    "layer_cycles",
    "network_cycles",
    "output_tile_cycles",
    "realtime_budget",
    "clock_order_product",
    "simulate_layer",
    "simulate_layer_block",
    "simulate_output_tile",
    "ContextMemory",
    "memory_footprint",
]


@dataclass(frozen=True)
class HwConfig:
    """Array geometry, and the order in which a modelled product sums its
    integer terms: with fast_mac the fixed datapath's BLAS product, else
    clock_order_product. Defaults give 2 x 256 = 512 PEs. The datapath
    widths are the model's own (its container's formats), not the array's."""

    pe_arrays: int = 2
    pes_per_array: int = 256
    fast_mac: bool = True

    def __post_init__(self):
        if self.pe_arrays < 1 or self.pes_per_array < 1:
            raise ValueError("need at least one PE array and one PE")


@dataclass(frozen=True)
class LayerCycles:
    input_dim: int
    hidden: int
    input_path: int
    recurrent_path: int

    @property
    def total(self) -> int:
        return self.input_path + self.recurrent_path


@cache
def layer_cycles(input_dim: int, hidden: int, cfg: HwConfig = HwConfig()) -> LayerCycles:
    """Matrix-vector cycles for one LSTM layer.

    Four matvecs per side spread over the arrays; each pass feeds one input
    element per clock and covers one tile of pes_per_array rows. A pure
    function of its arguments, so each is computed once.
    """
    passes = math.ceil(4 / cfg.pe_arrays)
    tiles = math.ceil(hidden / cfg.pes_per_array)
    return LayerCycles(
        input_dim=input_dim,
        hidden=hidden,
        input_path=passes * input_dim * tiles,
        recurrent_path=passes * hidden * tiles,
    )


@cache
def output_tile_cycles(input_dim: int, labels: int, cfg: HwConfig = HwConfig()) -> int:
    """The fully connected output tile: one matvec, input_dim cycles per
    tile of pes_per_array rows. Reported separately from the layer totals.
    Computed once for each set of arguments, like layer_cycles."""
    return math.ceil(labels / cfg.pes_per_array) * input_dim


@dataclass
class CycleReport:
    """Per-layer and per-network cycle counts. Totals always equal the sum
    of their parts; the output tile is kept outside the LSTM total."""

    layers: list = field(default_factory=list)
    output_tile: Optional[int] = None

    @property
    def total(self) -> int:
        return sum(lc.total for lc in self.layers)


def network_cycles(
    layer_dims: Sequence[int],
    cfg: HwConfig = HwConfig(),
    labels: Optional[int] = None,
) -> CycleReport:
    """Cycle report for a stack given as [input, hidden1, hidden2, ...]."""
    if len(layer_dims) < 2:
        raise ValueError("need at least an input and one hidden size")
    report = CycleReport()
    for d, h in zip(layer_dims[:-1], layer_dims[1:]):
        report.layers.append(layer_cycles(d, h, cfg))
    if labels is not None:
        report.output_tile = output_tile_cycles(layer_dims[-1], labels, cfg)
    return report


def realtime_budget(am_rate: float, lm_calls: float, am_cycles, lm_cycles) -> int:
    """Clock cycles per second to keep up with a live stream.

    am_rate: acoustic-model invocations per second (one per frame).
    lm_calls: character-LM invocations per second (transitions x beams).
    Cycle arguments may be CycleReports or plain totals.
    """
    if am_rate < 0 or lm_calls < 0:
        raise ValueError("rates must be non-negative")
    am_c = am_cycles.total if isinstance(am_cycles, CycleReport) else int(am_cycles)
    lm_c = lm_cycles.total if isinstance(lm_cycles, CycleReport) else int(lm_cycles)
    return int(am_rate * am_c + lm_calls * lm_c)


# ---------------------------------------------------------------------------
# Functional datapath emulation
# ---------------------------------------------------------------------------


def _tiles(rows: int, P: int, gates: int) -> list:
    """The row slices of the PE tiles over rows stacked as gates equal
    blocks: each block in tiles of up to P rows, none crossing a block
    edge, as layer_cycles and output_tile_cycles count them."""
    height = rows // gates
    return [slice(t, min(t + P, g + height))
            for g in range(0, rows, height) for t in range(g, g + height, P)]


def clock_order_product(w, x, P: int, gates: int = 1):
    """w @ x in the PE arrays' clock order.

    The rows of w are gates equal blocks (the stacked i, f, o, c of a layer,
    or the output tile's one). On each tile of _tiles the outer-product
    schedule broadcasts x[j] and adds w[:, j] * x[j] into each PE's
    accumulator, one column per clock. x is (D,) or (D, B). The sums run in
    the dtype of w @ x, so operands whose partial sums that dtype holds
    exactly give the bytes of w @ x: integer levels, or a compiled layer
    matrix, whose rows are levels times their power-of-two factors
    (rnn.QuantizedLstmLayer), by integer levels.
    """
    out = np.zeros((len(w),) + x.shape[1:], dtype=np.result_type(w, x))
    for rows in _tiles(len(w), P, gates):
        acc = out[rows]
        for j in range(w.shape[1]):
            acc += np.multiply.outer(w[rows, j], x[j])
    return out


def _product(cfg: HwConfig, gates: int):
    """The matrix product of a modelled step: rnn.tiled_product with
    cfg.fast_mac, else clock_order_product on tiles of pes_per_array rows
    inside each of the gates row blocks."""
    if cfg.fast_mac:
        return tiled_product
    return partial(clock_order_product, P=cfg.pes_per_array, gates=gates)


def simulate_layer(q: QuantizedLstmLayer, x_lev, state, cfg: HwConfig = HwConfig(), labels=None,
                   recurrent=None):
    """Run one layer through the modeled hardware.

    x_lev: integer levels in the layer's input signal scheme, shape (D,) or
    (D, B); or None, with the (B,) labels of a one-hot input, whose input
    half is read from the layer's label table (see rnn.fixed_step_levels).
    state: rnn.LstmState holding h/c levels. recurrent: the recurrent
    product of state.h made before, if any, which the step then reuses.
    Returns (h_lev, new_state, LayerCycles), the cycles those of a whole
    step, since the arrays make every product. Output bits match
    rnn.fixed_step_levels.
    """
    h_new, c_new = fixed_step_levels(q, x_lev, state.h, state.c, labels, _product(cfg, 4),
                                     recurrent)
    return h_new, LstmState(h=h_new, c=c_new), layer_cycles(q.input_dim, q.hidden, cfg)


def simulate_layer_block(q: QuantizedLstmLayer, x_lev, state, cfg: HwConfig = HwConfig()):
    """Run one layer through the modeled hardware for k consecutive frames
    of one stream.

    x_lev: (D, k) integer levels, column t the input at frame t. state:
    rnn.LstmState holding the (H,) h/c levels before the first frame.
    Returns (h_lev, new_state, cycles): the (H, k) outputs, the state after
    the last frame and the cycles of the k layer steps, layer_cycles x k.
    The bits are those of k calls of simulate_layer; the input side of the
    k frames is one product (rnn.fixed_block_levels).
    """
    h_lev, c_lev = fixed_block_levels(q, x_lev, state.h, state.c, _product(cfg, 4))
    cycles = layer_cycles(q.input_dim, q.hidden, cfg).total * x_lev.shape[1]
    return h_lev, LstmState(h=h_lev[:, -1], c=c_lev), cycles


def simulate_output_tile(
    qo: QuantizedOutputLayer, h_lev, cfg: HwConfig = HwConfig()
):
    """Output tile matvec on the PE array; returns (real logits, cycles),
    the logits those of QuantizedOutputLayer.logits."""
    labels, hidden = qo.w_lev.shape
    acc = _product(cfg, 1)(qo.w_lev, np.asarray(h_lev, dtype=np.float64))
    return qo.logits_from_acc(acc), output_tile_cycles(hidden, labels, cfg)


# ---------------------------------------------------------------------------
# Context memory
# ---------------------------------------------------------------------------


class ContextMemory:
    """Per-hypothesis storage for the character-LM recurrent state.

    One slot per live hypothesis; each slot keeps every LM layer's (h, c)
    exactly as the datapath produced them. A slot is one row of an
    (n_slots, W) array, its layers' h and c side by side (W = 2 x the sum
    of the widths), and the array doubles when the slots outgrow it. A
    batch advance stores its (H, B) outputs in one assignment, copying
    them, and loads its states with one take, transposed once into (H, B)
    C-contiguous arrays. The live slots are a set and the released ones a
    free list for reuse, so storing, loading and releasing a batch runs no
    loop over its slots. The live count is bounded by the beam width plus
    transient copies inside one search step, which check_capacity enforces.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rows = None  # (n_slots, W), allocated by the first store
        self._widths = []  # per layer: its width H
        self._live = set()
        self._free = []
        self._handed = 0  # slots handed out so far
        self.peak_live = 0

    @property
    def live(self) -> int:
        return len(self._live)

    @property
    def rows(self) -> int:
        """The slot rows allocated: every slot handed out is below it."""
        return 0 if self._rows is None else len(self._rows)

    def store(self, layers) -> list:
        """Keep column b of every layer's (h, c), each (H, B), in a slot of
        its own; returns the B slots in column order, the last freed first."""
        B = layers[0][0].shape[1]
        cut = max(len(self._free) - B, 0)
        slots = self._free[cut:][::-1]
        del self._free[cut:]
        fresh = B - len(slots)
        slots += range(self._handed, self._handed + fresh)
        self._handed += fresh
        columns = np.concatenate([a for pair in layers for a in pair])
        if self._rows is None:
            self._widths = [len(h) for h, _ in layers]
            self._rows = np.zeros((0, len(columns)), dtype=columns.dtype)
        if self._handed > len(self._rows):
            self._grow()
        self._rows[slots] = columns.T
        self._live.update(slots)
        self.peak_live = max(self.peak_live, len(self._live))
        return slots

    def _grow(self):
        """Double the rows, to capacity slots at first and at least to every
        slot handed out, keeping the slots they hold."""
        rows = np.zeros((max(2 * len(self._rows), self.capacity, self._handed),
                         self._rows.shape[1]), dtype=self._rows.dtype)
        rows[: len(self._rows)] = self._rows
        self._rows = rows

    def load(self, slots):
        """Every layer's (h, c) for the slots, as (H, len(slots)) arrays."""
        idx = np.asarray(slots)
        self._held(idx.tolist())
        columns = np.ascontiguousarray(self._rows.take(idx, axis=0).T)
        out, at = [], 0
        for H in self._widths:
            out.append((columns[at : at + H], columns[at + H : at + 2 * H]))
            at += 2 * H
        return out

    def release(self, slots):
        """Free a live slot, or an array of them; releasing one that is not
        live is an error, since a second release would hand one slot to two
        hypotheses."""
        slots = np.asarray(slots).ravel().tolist()
        self._held(slots)
        if len(set(slots)) < len(slots):
            seen = set()
            twice = next(s for s in slots if s in seen or seen.add(s))
            raise KeyError(f"context slot {twice} is released twice")
        self._live.difference_update(slots)
        self._free.extend(slots)

    def _held(self, slots: list):
        """KeyError naming the first of the slots that is not live."""
        if not self._live.issuperset(slots):
            s = next(s for s in slots if s not in self._live)
            raise KeyError(f"context slot {s} is not live")

    def check_capacity(self):
        if self.live > self.capacity:
            raise RuntimeError(
                f"context memory holds {self.live} slots, capacity {self.capacity}"
            )


# ---------------------------------------------------------------------------
# Memory footprint
# ---------------------------------------------------------------------------

# invented node layout: label byte, parent index, two log scores,
# context slot id, word-state handle, word-LM score
BEAM_NODE_BYTES = 1 + 4 + 8 + 8 + 2 + 4 + 4
LUT_ENTRY_BYTES = 2


def memory_footprint(am_parts: Sequence, lm_parts: Sequence, beam_width: int) -> dict:
    """Byte counts for weights, activation tables, context memory and the
    beam data structure, read from the quantized parts of the acoustic
    model and the character LM (LSTM layers, and output layers if given).
    Each part's tensors count at their widths, rounded up to whole bytes
    per part; the tables are the first LSTM layer's sigmoid/tanh pair; a
    context slot holds each LM layer's h at its signal width and c at its
    cell width, each layer's rounded up to whole bytes."""

    def shapes(q):
        if isinstance(q, QuantizedLstmLayer):
            return layer_shapes(q.input_dim, q.hidden)
        return {"W": q.w_lev.shape, "b": q.b_lev.shape}

    def weights_bytes(parts):
        bits = [sum(math.prod(s) * getattr(q, width_key(n)) for n, s in shapes(q).items())
                for q in parts]
        return sum(math.ceil(b / 8) for b in bits)

    def lstm(parts):
        return [q for q in parts if isinstance(q, QuantizedLstmLayer)]

    am_w = weights_bytes(am_parts)
    lm_w = weights_bytes(lm_parts)
    context = beam_width * sum(
        math.ceil(q.hidden * (q.fmt.sig_out.bits + q.fmt.cell.bits) / 8) for q in lstm(lm_parts)
    )
    fmt = lstm([*am_parts, *lm_parts])[0].fmt
    luts = LUT_ENTRY_BYTES * (fmt.lut_sigmoid.n + fmt.lut_tanh.n)
    beam = beam_width * BEAM_NODE_BYTES
    report = {
        "mem.weights.am": am_w,
        "mem.weights.lm": lm_w,
        "mem.weights.total": am_w + lm_w,
        "mem.luts": luts,
        "mem.context": context,
        "mem.beam_nodes": beam,
        "mem.total": am_w + lm_w + luts + context + beam,
    }
    return report
