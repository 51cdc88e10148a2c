"""Cycle- and bit-accurate model of the PE-array RNN accelerator.

Two PE arrays of 256 multiply-accumulate units compute the eight per-layer
matrix-vector products by the outer-product method: one input element is
broadcast per clock, so the x-side of a layer costs ceil(4/arrays) * d
cycles per row tile and the recurrent side the same with d = H. The four
gate results land in the PE output buffers (bias preloaded, zero cycles);
an element-wise post-processing unit then applies peephole products, the
lookup-table activations, and the cell/output updates. The post-processing
unit is pipelined behind the arrays and contributes no cycles.

This module adds only the PE schedule and the cycle accounting. With
HwConfig.fast_mac (the default) a layer step is the fixed datapath's own
(rnn.fixed_step_levels) and the output tile is QuantizedOutputLayer.logits,
so a simulated step costs what a fixed step costs plus the cycle
bookkeeping. With fast_mac off the arrays run the clock-order
outer-product schedule, tile by tile, and the post-processing unit is
rnn.elementwise_update, the fixed datapath's element-wise half. The
schedule accumulates the same integer sums in another order, and integer
addition is order-independent, so the bits match either way.

simulate_layer_block steps one layer over k consecutive frames of a stream,
as the acoustic model runs: with fast_mac the input side of all k frames
is one product (rnn.fixed_block_levels), and either way it accounts k
layer steps of cycles, as the hardware spends them frame by frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .rnn import (
    LstmState,
    QuantizedLstmLayer,
    QuantizedOutputLayer,
    elementwise_update,
    fixed_block_levels,
    fixed_step_levels,
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
    "simulate_layer",
    "simulate_layer_block",
    "simulate_output_tile",
    "ContextMemory",
    "memory_footprint",
]


@dataclass(frozen=True)
class HwConfig:
    """Array geometry. Defaults give 2 x 256 = 512 PEs. The datapath widths
    are the model's own (its container's formats), not the array's."""

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


def layer_cycles(input_dim: int, hidden: int, cfg: HwConfig = HwConfig()) -> LayerCycles:
    """Matrix-vector cycles for one LSTM layer.

    Four matvecs per side spread over the arrays; each pass feeds one input
    element per clock and covers one tile of pes_per_array rows.
    """
    passes = math.ceil(4 / cfg.pe_arrays)
    tiles = math.ceil(hidden / cfg.pes_per_array)
    return LayerCycles(
        input_dim=input_dim,
        hidden=hidden,
        input_path=passes * input_dim * tiles,
        recurrent_path=passes * hidden * tiles,
    )


def output_tile_cycles(input_dim: int, labels: int, cfg: HwConfig = HwConfig()) -> int:
    """The fully connected output tile: one matvec, input_dim cycles per
    tile of pes_per_array rows. Reported separately from the layer totals."""
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


def _pe_array_matvec(w_lev, x_lev, acc, shift_factor):
    """Accumulate one matrix-vector product into a PE buffer in clock order.

    The outer-product schedule broadcasts x[j] to the tile and adds
    w[:, j] * x[j] into each PE's accumulator; column order is the clock
    order.
    """
    if x_lev.ndim == 1:
        for j in range(w_lev.shape[1]):
            acc += w_lev[:, j] * (x_lev[j] * shift_factor)
    else:
        for j in range(w_lev.shape[1]):
            acc += np.outer(w_lev[:, j], x_lev[j]) * shift_factor


def _scheduled_gate_accumulators(q: QuantizedLstmLayer, x_lev, h_lev, P: int):
    """PE phase in clock order: four gate buffers per row tile, bias
    preloaded. A tile lies inside one gate, so its first row's shift is the
    whole tile's. x and h are cast to the layer's weight dtype."""
    H = q.hidden
    x_lev = np.asarray(x_lev, dtype=q.wx_lev.dtype)
    h_lev = np.asarray(h_lev, dtype=q.wh_lev.dtype)
    batch = x_lev.shape[1:] if x_lev.ndim == 2 else ()
    acc = np.zeros((4 * H,) + batch)
    acc += q.bias_acc[:, None] if batch else q.bias_acc
    for g in range(4):
        for t0 in range(g * H, (g + 1) * H, P):
            rows = slice(t0, min(t0 + P, (g + 1) * H))
            _pe_array_matvec(q.wx_lev[rows], x_lev, acc[rows], q.wx_shift[t0])
            _pe_array_matvec(q.wh_lev[rows], h_lev, acc[rows], q.wh_shift[t0])
    return acc


def simulate_layer(q: QuantizedLstmLayer, x_lev, state, cfg: HwConfig = HwConfig(), labels=None):
    """Run one layer through the modeled hardware.

    x_lev: integer levels in the layer's input signal scheme, shape (D,) or
    (D, B); or None, with the (B,) labels of a one-hot input (see
    rnn.fixed_step_levels). state: rnn.LstmState holding h/c levels.
    Returns (h_lev, new_state, LayerCycles). Output bits match
    rnn.fixed_step_levels.

    With cfg.fast_mac the step is the fixed datapath's own (the stacked
    products, or the label table and the recurrent product, and the
    element-wise update); otherwise the clock-order schedule fills the PE
    buffers from the dense input, one tile of pes_per_array rows and one
    column per clock, and the element-wise update reads them.
    """
    if cfg.fast_mac:
        h_new, c_new = fixed_step_levels(q, x_lev, state.h, state.c, labels)
    else:
        if labels is not None:
            x_lev = np.zeros((q.input_dim, len(labels)))
            x_lev[labels, np.arange(len(labels))] = q.one_hot
        acc = _scheduled_gate_accumulators(q, x_lev, state.h, cfg.pes_per_array)
        h_new, c_new = elementwise_update(q, acc, state.c)
    return h_new, LstmState(h=h_new, c=c_new), layer_cycles(q.input_dim, q.hidden, cfg)


def simulate_layer_block(q: QuantizedLstmLayer, x_lev, state, cfg: HwConfig = HwConfig()):
    """Run one layer through the modeled hardware for k consecutive frames
    of one stream.

    x_lev: (D, k) integer levels, column t the input at frame t. state:
    rnn.LstmState holding the (H,) h/c levels before the first frame.
    Returns (h_lev, new_state, cycles): the (H, k) outputs, the state after
    the last frame and the cycles of the k layer steps, layer_cycles x k.
    The bits are those of k calls of simulate_layer.

    With cfg.fast_mac the input side of the k frames is one product
    (rnn.fixed_block_levels); otherwise each frame runs the clock-order
    schedule of simulate_layer in turn.
    """
    k = x_lev.shape[1]
    cycles = layer_cycles(q.input_dim, q.hidden, cfg).total * k
    if cfg.fast_mac:
        h_lev, c_lev = fixed_block_levels(q, x_lev, state.h, state.c)
        return h_lev, LstmState(h=h_lev[:, -1], c=c_lev), cycles
    h_lev = np.empty((q.hidden, k))
    for t in range(k):
        h_lev[:, t], state, _ = simulate_layer(q, x_lev[:, t], state, cfg)
    return h_lev, state, cycles


def simulate_output_tile(
    qo: QuantizedOutputLayer, h_lev, cfg: HwConfig = HwConfig()
):
    """Output tile matvec on the PE array; returns (real logits, cycles).
    With cfg.fast_mac the logits are the output layer's own; otherwise the
    tile accumulates in clock order."""
    labels, hidden = qo.w_lev.shape
    cycles = output_tile_cycles(hidden, labels, cfg)
    if cfg.fast_mac:
        return qo.logits(h_lev), cycles
    h_lev = np.asarray(h_lev, dtype=np.float64)
    P = cfg.pes_per_array
    acc = np.zeros((labels,) + (h_lev.shape[1:] if h_lev.ndim == 2 else ()))
    for t0 in range(0, labels, P):
        rows = slice(t0, min(t0 + P, labels))
        _pe_array_matvec(qo.w_lev[rows], h_lev, acc[rows], 1.0)
    return qo.logits_from_acc(acc), cycles


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

    def weights_bytes(parts):
        bits = [sum(lev.size * getattr(q, width_key(n)) for n, (lev, _) in q.tensors().items())
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
