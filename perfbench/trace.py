"""Span tracer for the traced benchmark run.

The tracer wraps public callables at the attributes their callers resolve
(module functions the engine calls through a module or its own globals,
and methods on the classes), records one span per call with its parent,
and keeps every span in memory until the run writes them out. Nothing in
the engine knows about it; uninstalling restores the original attributes.

A span's self time is its duration minus the durations of its direct
children, so the self times of every span under one utterance add up to
that utterance's wall time exactly.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import qasr.container
import qasr.decoder
import qasr.engine
import qasr.hwsim

# (owner, attribute, span name). The engine calls the rnn datapath through
# its own module globals and the hardware model through the hwsim module;
# search_step is resolved from the container module by quantize_model.
PATCH_POINTS = (
    (qasr.engine, "fixed_step_levels", "rnn.fixed_step_levels"),
    (qasr.engine, "lstm_step", "rnn.lstm_step"),
    (qasr.hwsim, "simulate_layer", "hwsim.simulate_layer"),
    (qasr.hwsim, "simulate_output_tile", "hwsim.simulate_output_tile"),
    (qasr.decoder.BeamSearch, "step", "decoder.step"),
    (qasr.engine.FloatCharLm, "advance_batch", "charlm.advance_batch"),
    (qasr.engine.FixedCharLm, "advance_batch", "charlm.advance_batch"),
    (qasr.engine.HwCharLm, "advance_batch", "charlm.advance_batch"),
    (qasr.decoder.WordRescorer, "delta", "wordlm.delta"),
    (qasr.hwsim.ContextMemory, "store", "hwsim.context"),
    (qasr.hwsim.ContextMemory, "load", "hwsim.context"),
    (qasr.hwsim.ContextMemory, "release", "hwsim.context"),
    (qasr.container, "search_step", "quant.search_step"),
)

DATAPATH = {
    "rnn.fixed_step_levels": "rnn",
    "rnn.lstm_step": "rnn",
    "hwsim.simulate_layer": "hwsim",
    "hwsim.simulate_output_tile": "hwsim",
}


class Tracer:
    """Spans as parallel lists: name, parent index (-1 for a root), start,
    end and an optional batch size (LM advances carry theirs)."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.sizes: dict = {}
        self._stack: list = []
        self._saved: list = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        sized = name == "charlm.advance_batch"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            if sized:
                tracer.sizes[idx] = len(args[-1])  # advance_batch(self, states, labels)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> list:
        """Wrap every patch point; returns the ones the program lacks."""
        missing = []
        for owner, attr, name in PATCH_POINTS:
            original = owner.__dict__.get(attr)
            if original is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return missing

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def layer_of(self, idx: int) -> str:
        """The layer a span's self time belongs to; datapath calls are split
        into acoustic model and character LM by their parent span."""
        name = self.names[idx]
        if name in DATAPATH:
            parent = self.parents[idx]
            role = "lm" if parent >= 0 and self.names[parent] == "charlm.advance_batch" else "am"
            return f"{DATAPATH[name]}.{role}"
        return name

    def utterance_split(self) -> tuple:
        """(seconds of self time per layer, total utterance seconds) over the
        spans under every "utterance" root."""
        self_t = self.self_times()
        root_of = [-1] * len(self.names)
        by_layer: dict = defaultdict(float)
        total = 0.0
        for idx, parent in enumerate(self.parents):
            root_of[idx] = idx if parent < 0 else root_of[parent]
            root = root_of[idx]
            if self.names[root] != "utterance":
                continue
            if idx == root:
                total += self.ends[idx] - self.starts[idx]
            by_layer[self.layer_of(idx)] += self_t[idx]
        return dict(by_layer), total

    def totals(self) -> dict:
        """layer -> (call count, total seconds) over all spans."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for idx in range(len(self.names)):
            entry = out[self.layer_of(idx)]
            entry[0] += 1
            entry[1] += self.ends[idx] - self.starts[idx]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        """Spans as JSON: a name table and [name id, parent, start us, end us]."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [ids[n], p, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1)]
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": spans}, fh, separators=(",", ":"))
