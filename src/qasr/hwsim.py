"""Cycle- and bit-accurate model of the PE-array RNN accelerator.

Two PE arrays of 256 multiply-accumulate units compute the eight per-layer
matrix-vector products by the outer-product method: one input element is
broadcast per clock, so the x-side of a layer costs ceil(4/arrays) * d
cycles per row tile and the recurrent side the same with d = H. The four
gate results land in the PE output buffers (bias preloaded, zero cycles);
an element-wise post-processing unit then applies peephole products, the
lookup-table activations, and the cell/output updates. The post-processing
unit is pipelined behind the arrays and contributes no cycles.

This module adds only the PE schedule and the cycle accounting. The
post-processing unit is rnn.elementwise_update, the same code the fixed
datapath runs. With HwConfig.fast_mac (the default) the PE buffers are
filled by rnn.gate_accumulators and the output tile by
QuantizedOutputLayer.logits, so a simulated step costs what a fixed step
costs plus the cycle bookkeeping. With fast_mac off the arrays run the
clock-order outer-product schedule, tile by tile; it accumulates the same
integer sums in another order, and integer addition is order-independent,
so the bits match either way.
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
    gate_accumulators,
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
    "simulate_output_tile",
    "ContextMemory",
    "memory_footprint",
]


@dataclass(frozen=True)
class HwConfig:
    """Array geometry and storage widths. Defaults give 2 x 256 = 512 PEs."""

    pe_arrays: int = 2
    pes_per_array: int = 256
    weight_bits: int = 6
    signal_bits: int = 8
    cell_bits: int = 16
    sync_overhead: int = 0
    fast_mac: bool = True

    def __post_init__(self):
        if self.pe_arrays < 1 or self.pes_per_array < 1:
            raise ValueError("need at least one PE array and one PE")

    @property
    def total_pes(self) -> int:
        return self.pe_arrays * self.pes_per_array


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

    name: str
    layers: list = field(default_factory=list)
    sync_overhead: int = 0
    output_tile: Optional[int] = None

    @property
    def lstm_total(self) -> int:
        return sum(lc.total for lc in self.layers)

    @property
    def total(self) -> int:
        return self.lstm_total + self.sync_overhead

    def to_lines(self) -> list:
        lines = []
        for li, lc in enumerate(self.layers):
            lines.append((f"{self.name}.layer{li}.input_cycles", lc.input_path))
            lines.append((f"{self.name}.layer{li}.recurrent_cycles", lc.recurrent_path))
            lines.append((f"{self.name}.layer{li}.cycles", lc.total))
        lines.append((f"{self.name}.sync_overhead", self.sync_overhead))
        lines.append((f"{self.name}.cycles", self.total))
        if self.output_tile is not None:
            lines.append((f"{self.name}.output_tile.cycles", self.output_tile))
        return lines


def network_cycles(
    layer_dims: Sequence[int],
    cfg: HwConfig = HwConfig(),
    labels: Optional[int] = None,
    name: str = "net",
) -> CycleReport:
    """Cycle report for a stack given as [input, hidden1, hidden2, ...]."""
    if len(layer_dims) < 2:
        raise ValueError("need at least an input and one hidden size")
    report = CycleReport(name=name, sync_overhead=cfg.sync_overhead)
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


def simulate_layer(q: QuantizedLstmLayer, x_lev, state, cfg: HwConfig = HwConfig()):
    """Run one layer through the modeled hardware.

    x_lev: integer levels in the layer's input signal scheme, shape (D,) or
    (D, B). state: rnn.LstmState holding h/c levels. Returns
    (h_lev, new_state, LayerCycles). Output bits match rnn.fixed_step_levels.

    With cfg.fast_mac the PE buffers are filled by the fixed datapath's own
    gate accumulation (two stacked products); otherwise by the clock-order
    schedule, one tile of pes_per_array rows and one column per clock.
    """
    if cfg.fast_mac:
        acc = gate_accumulators(q, x_lev, state.h)
    else:
        acc = _scheduled_gate_accumulators(q, x_lev, state.h, cfg.pes_per_array)

    # EPU phase: the fixed datapath's element-wise update.
    h_new, c_new = elementwise_update(q, acc, state.c)
    return h_new, LstmState(h=h_new, c=c_new), layer_cycles(q.input_dim, q.hidden, cfg)


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
    exactly as the datapath produced them. A batch advance loads its
    states as (H, B) arrays and stores its outputs back, one slot per
    column; a slot holds column views of the batch output, not copies.
    Released slots go on a free list for reuse. The live count is bounded
    by the beam width plus transient copies inside one search step, which
    check_capacity enforces.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._slots = []  # per slot: its layers' (h, c) columns, None when free
        self._free = []
        self.live = 0
        self.peak_live = 0

    def store(self, layers) -> list:
        """Keep column b of every layer's (h, c), each (H, B), in a slot of
        its own; returns the B slots in column order."""
        slots = []
        for b in range(layers[0][0].shape[1]):
            columns = [(h[:, b], c[:, b]) for h, c in layers]
            if self._free:
                slot = self._free.pop()
                self._slots[slot] = columns
            else:
                slot = len(self._slots)
                self._slots.append(columns)
            slots.append(slot)
        self.live += len(slots)
        self.peak_live = max(self.peak_live, self.live)
        return slots

    def load(self, slots):
        """Every layer's (h, c) for the slots, stacked as (H, len(slots))."""
        held = [self._held(s) for s in slots]
        return [
            (np.stack([s[li][0] for s in held], axis=1), np.stack([s[li][1] for s in held], axis=1))
            for li in range(len(held[0]))
        ]

    def release(self, slot: int):
        """Free a live slot; releasing one that is not live is an error,
        since a second release would hand one slot to two hypotheses."""
        self._held(slot)
        self._slots[slot] = None
        self._free.append(slot)
        self.live -= 1

    def _held(self, slot: int):
        if not 0 <= slot < len(self._slots) or self._slots[slot] is None:
            raise KeyError(f"context slot {slot} is not live")
        return self._slots[slot]

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


def _layer_weight_bits(q: QuantizedLstmLayer) -> int:
    n_w = q.wx_lev.size + q.wh_lev.size + q.peep_lev.size
    return n_w * q.weight_bits + q.bias_lev.size * q.bias_bits


def memory_footprint(
    am_layers: Sequence[QuantizedLstmLayer],
    lm_layers: Sequence[QuantizedLstmLayer],
    beam_width: int,
    cfg: HwConfig = HwConfig(),
    am_output: Optional[QuantizedOutputLayer] = None,
    lm_output: Optional[QuantizedOutputLayer] = None,
    lut_entries: int = 1024,
    lut_entry_bytes: int = 2,
    node_bytes: int = BEAM_NODE_BYTES,
) -> dict:
    """Byte counts for weights, activation tables, context memory and the
    beam data structure. Per-layer bit totals round up to whole bytes."""

    def weights_bytes(layers, output):
        total = 0
        for q in layers:
            total += math.ceil(_layer_weight_bits(q) / 8)
        if output is not None:
            bits = output.w_lev.size * output.weight_bits + output.b_lev.size * output.bias_bits
            total += math.ceil(bits / 8)
        return total

    am_w = weights_bytes(am_layers, am_output)
    lm_w = weights_bytes(lm_layers, lm_output)
    context = beam_width * sum(2 * q.hidden * cfg.cell_bits // 8 for q in lm_layers)
    luts = 2 * lut_entries * lut_entry_bytes
    beam = beam_width * node_bytes
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
