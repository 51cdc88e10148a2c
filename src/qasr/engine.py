"""End-to-end decoding: wires the frontend, acoustic model, character-LM
fusion and word-LM rescoring together in one of three modes.

float  - double-precision reference forward passes.
fixed  - the quantized integer datapath (rnn.fixed_step_levels).
hwsim  - the PE-array hardware model; bit-identical to fixed, and it also
         accounts clock cycles.

Each mode is one datapath (encode, step, logits and cycle counters, which
stay zero outside hwsim) shared by two runners: _AmRunner steps the
acoustic model one frame at a time, and RnnCharLm advances the character
LM in batches. In every mode the character LM keeps one context-memory
slot per live hypothesis, and decode checks its capacity after each frame.

Reports are flat key/value text. Cycle-model numbers are emitted in every
mode (they are analytic); hwsim mode additionally emits measured counters,
which must agree with the model.

A decode runs in two stages side by side, as the paper's SoC does with the
PE arrays beside the host CPU. The acoustic model reads only the features,
so it runs in a worker process forked for the decode and sends each
frame's posterior row through a one-way pipe as soon as it is computed;
the beam search, both language models, the context memory and emit stay in
the calling process and step on each row as it arrives. decode therefore
needs a platform with the "fork" start method (Linux, macOS).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import hwsim
from .container import ContainerError, ModelContainer
from .decoder import Alphabet, BeamConfig, BeamSearch, CharLm, WordRescorer
from .hwsim import ContextMemory, HwConfig
from .quant import rescale_levels
from .rnn import LstmState, fixed_step_levels, lstm_step, softmax
from .wordlm import ArpaModel

__all__ = [
    "RunConfig",
    "DecodeResult",
    "decode",
    "write_report",
    "read_report",
    "RnnCharLm",
    "FloatCharLm",
    "FixedCharLm",
    "HwCharLm",
]

MODES = ("float", "fixed", "hwsim")


@dataclass
class RunConfig:
    mode: str = "fixed"
    beam_width: int = 128
    alpha: float = 1.0
    lam: float = 1.0
    beta: float = 0.0
    prune_period: int = 100
    frame_rate: float = 100.0  # frames per second of audio
    budget_lm_rate: float = 3840.0  # assumed LM invocations/s in the budget line
    hw: HwConfig = field(default_factory=HwConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass
class DecodeResult:
    transcript: str
    report: dict
    labels: list


# ---------------------------------------------------------------------------
# Datapaths: one per mode, shared by the acoustic model and the character LM
# ---------------------------------------------------------------------------


class _FloatPath:
    """Double-precision forward passes over the container's float model."""

    cycles = output_cycles = 0  # only the hardware model counts cycles
    one_hot = 1.0

    def __init__(self, container: ModelContainer):
        fm = container.float_model()
        self.layers = fm.layers
        self.output = fm.output
        self.hidden = [p.hidden for p in self.layers]

    def encode(self, x):
        return np.asarray(x, dtype=np.float64)

    def step(self, li, x, h, c):
        h, state = lstm_step(self.layers[li], x, LstmState(h=h, c=c), mode="float")
        return h, state.c

    def logits(self, h):
        z = self.output.W @ h
        return z + (self.output.b[:, None] if z.ndim == 2 else self.output.b)


class _FixedPath:
    """The integer datapath: signals, cells and states are integer levels."""

    cycles = output_cycles = 0

    def __init__(self, container: ModelContainer):
        self.qlayers = container.qlayers
        self.qoutput = container.qoutput
        self.scheme = container.feature_scheme
        self.hidden = [q.hidden for q in self.qlayers]
        self.one_hot = round(1.0 / self.scheme.step)  # exact for the one-hot input

    def encode(self, x):
        return rescale_levels(x, 0, self.scheme)

    def step(self, li, x, h, c):
        return fixed_step_levels(self.qlayers[li], x, h, c)

    def logits(self, h):
        return self.qoutput.logits(h)


class _HwPath(_FixedPath):
    """The PE-array model: the fixed datapath's bits, with every layer step
    and output tile accounted in clock cycles, once per batch column."""

    def __init__(self, container: ModelContainer, hw: HwConfig):
        super().__init__(container)
        self.hw = hw

    def step(self, li, x, h, c):
        h, state, cyc = hwsim.simulate_layer(self.qlayers[li], x, LstmState(h=h, c=c), self.hw)
        self.cycles += cyc.total * (x.shape[1] if x.ndim == 2 else 1)
        return h, state.c

    def logits(self, h):
        logits, cyc = hwsim.simulate_output_tile(self.qoutput, h, self.hw)
        self.output_cycles += cyc * (h.shape[1] if h.ndim == 2 else 1)
        return logits


def _datapath(container, cfg: RunConfig):
    if cfg.mode == "float":
        return _FloatPath(container)
    if cfg.mode == "fixed":
        return _FixedPath(container)
    return _HwPath(container, cfg.hw)


# ---------------------------------------------------------------------------
# Runners: the acoustic model and the character LM
# ---------------------------------------------------------------------------


def _log_softmax(logits):
    z = logits - np.max(logits, axis=0, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=0, keepdims=True))


class _AmRunner:
    """The acoustic model: one frame at a time, its state held in place."""

    def __init__(self, datapath):
        self.datapath = datapath
        self.states = [(np.zeros(H), np.zeros(H)) for H in datapath.hidden]

    def frame(self, x):
        dp = self.datapath
        h = dp.encode(x)
        for li, (h_prev, c_prev) in enumerate(self.states):
            h, c = dp.step(li, h, h_prev, c_prev)
            self.states[li] = (h, c)
        return softmax(dp.logits(h))


class RnnCharLm(CharLm):
    """The character LM over a datapath. A context handle is a context-memory
    slot, one per live hypothesis, as on the hardware. The root context is
    the zero state advanced by the EOS label (streams start at a sentence
    boundary); without an EOS the zero state's own output distribution is
    used."""

    def __init__(self, datapath, alphabet: Alphabet, capacity: int):
        self.datapath = datapath
        self.n_labels = alphabet.n_labels
        self.eos = alphabet.eos
        self.memory = ContextMemory(capacity)
        self.advances = 0

    def start(self):
        dp = self.datapath
        [state] = self.memory.store([(np.zeros((H, 1)), np.zeros((H, 1))) for H in dp.hidden])
        if self.eos is not None:
            primed, logp = self.advance(state, self.eos)
            self.release(state)
            state = primed
        else:
            logp = _log_softmax(dp.logits(np.zeros(dp.hidden[-1])))
        # priming is setup, not decode work
        self.advances = dp.cycles = dp.output_cycles = 0
        return state, logp

    def advance(self, state, label):
        [(new_state, logp)] = self.advance_batch([state], [label])
        return new_state, logp

    def advance_batch(self, states, labels):
        B = len(labels)
        self.advances += B
        dp = self.datapath
        h = np.zeros((self.n_labels, B))
        h[labels, np.arange(B)] = dp.one_hot
        layers = []
        for li, (h_prev, c_prev) in enumerate(self.memory.load(states)):
            h, c = dp.step(li, h, h_prev, c_prev)
            layers.append((h, c))
        logp = _log_softmax(dp.logits(h))
        return list(zip(self.memory.store(layers), logp.T))

    def release(self, state):
        self.memory.release(state)


# The benchmark's tracer resolves these names; they go once ROADMAP item 6
# points it at RnnCharLm.
FloatCharLm = RnnCharLm
FixedCharLm = RnnCharLm
HwCharLm = RnnCharLm


# counters a datapath measures (the hardware model's cycles), carried back
# from the worker in its last message
_MEASURED = ("cycles", "output_cycles")


class _WorkerTraceback(Exception):
    """The worker's formatted traceback, chained as the cause of the
    exception that the parent re-raises."""

    def __str__(self):
        return self.args[0]


def _am_worker(am_runner, features, rows, sink):
    """Worker body: send one float64 posterior row per frame as it is
    computed, then an empty message and the tail: the datapath's measured
    counters, or the exception that stopped it with its traceback."""
    rows.close()  # the parent's end; a dead parent then breaks the pipe
    try:
        for x in features:
            sink.send_bytes(am_runner.frame(x))
        tail = {k: getattr(am_runner.datapath, k) for k in _MEASURED}
    except Exception as exc:  # noqa: BLE001 - the parent re-raises it
        tail = (exc, "".join(traceback.format_exception(exc)))
    sink.send_bytes(b"")
    sink.send(tail)
    sink.close()


def _am_rows(am_runner, features):
    """Yield the acoustic model's posterior row for each frame, computed
    ahead in a forked worker; a stream with no frames starts none.

    A worker exception is re-raised here with its own type; a worker that
    dies raises RuntimeError with its exit code. Once every row is read,
    the worker's measured counters are set on am_runner's datapath. However
    the generator ends, the worker is terminated and joined.
    """
    if not len(features):
        return
    ctx = multiprocessing.get_context("fork")
    rows, sink = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_am_worker, args=(am_runner, features, rows, sink))
    worker.start()
    sink.close()

    def receive(read):
        try:
            return read()
        except EOFError:
            worker.join()
            raise RuntimeError(
                f"acoustic-model worker exited with code {worker.exitcode}"
            ) from None

    try:
        while buf := receive(rows.recv_bytes):
            yield np.frombuffer(buf)
        tail = receive(rows.recv)
        if isinstance(tail, tuple):
            exc, text = tail
            raise exc from _WorkerTraceback(text)
        for k, v in tail.items():
            setattr(am_runner.datapath, k, v)
    finally:
        worker.terminate()
        worker.join()
        worker.close()
        rows.close()


def _make_am(container, cfg: RunConfig):
    return _AmRunner(_datapath(container, cfg))


def _make_char_lm(container, cfg: RunConfig):
    if container is None:
        return None
    return RnnCharLm(_datapath(container, cfg), container.alphabet, cfg.beam_width)


# ---------------------------------------------------------------------------
# Decode
# ---------------------------------------------------------------------------


def decode(
    am: ModelContainer,
    lm: Optional[ModelContainer],
    arpa: Optional[ArpaModel],
    features,
    cfg: Optional[RunConfig] = None,
    emit=None,
) -> DecodeResult:
    """Run the full pipeline over a feature stream; cfg defaults to a fresh
    RunConfig(). The acoustic model runs in a forked worker process (see the
    module docstring); everything else runs in the caller's process."""
    t0 = time.perf_counter()
    if cfg is None:
        cfg = RunConfig()
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.size and features.shape[1] != am.input_dim:
        raise ContainerError(
            f"features are {features.shape[1]}-dim, acoustic model wants {am.input_dim}"
        )
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        t, d = bad[0]
        raise ValueError(f"feature frame {t}, dimension {d} is not finite ({features[t, d]})")
    if lm is not None and lm.alphabet != am.alphabet:
        raise ContainerError("acoustic and character-LM alphabets differ")
    if am.labels != am.alphabet.posterior_dim:
        raise ContainerError("acoustic output dim does not match the alphabet")

    am_runner = _make_am(am, cfg)
    char_lm = _make_char_lm(lm, cfg)
    word_lm = None
    if arpa is not None or cfg.beta != 0.0:
        word_lm = WordRescorer(arpa, lam=cfg.lam, beta=cfg.beta)

    beam_cfg = BeamConfig(
        beam_width=cfg.beam_width,
        alpha=cfg.alpha,
        lam=cfg.lam,
        beta=cfg.beta,
        prune_period=cfg.prune_period,
    )
    bs = BeamSearch(am.alphabet, beam_cfg, char_lm=char_lm, word_lm=word_lm, emit=emit)

    n_frames = features.shape[0]
    with contextlib.closing(_am_rows(am_runner, features)) as rows:
        for posteriors in rows:
            bs.step(posteriors)
            if char_lm is not None:
                char_lm.memory.check_capacity()

    labels, _ = bs.best_hypothesis() if n_frames else ([], 0.0)
    transcript = am.alphabet.text(labels)
    report = _build_report(am, lm, cfg, bs, am_runner, char_lm, n_frames, transcript)
    report["wall.seconds"] = time.perf_counter() - t0
    return DecodeResult(transcript=transcript, report=report, labels=labels)


def _build_report(am, lm, cfg, bs, am_runner, char_lm, n_frames, transcript):
    hw = cfg.hw
    am_rep = hwsim.network_cycles(am.layer_dims, hw, labels=am.labels, name="am")
    report = {
        "mode": cfg.mode,
        "frames": n_frames,
        "beam.width": cfg.beam_width,
        "transcript.chars": len(transcript),
        "am.invocations": n_frames,
        "am.lstm_cycles.per_invocation": am_rep.total,
        "am.output_tile.per_invocation": am_rep.output_tile,
        "am.lstm_cycles.total": n_frames * am_rep.total,
        "am.output_tile.total": n_frames * am_rep.output_tile,
    }
    lm_advances = char_lm.advances if char_lm is not None else 0
    lm_per = lm_tile = 0
    if lm is not None:
        lm_rep = hwsim.network_cycles(lm.layer_dims, hw, labels=lm.labels, name="lm")
        lm_per, lm_tile = lm_rep.total, lm_rep.output_tile
    report.update(
        {
            "lm.advances": lm_advances,
            "lm.lstm_cycles.per_advance": lm_per,
            "lm.output_tile.per_advance": lm_tile,
            "lm.lstm_cycles.total": lm_advances * lm_per,
            "lm.output_tile.total": lm_advances * lm_tile,
        }
    )
    report["cycles.total"] = (
        report["am.lstm_cycles.total"]
        + report["am.output_tile.total"]
        + report["lm.lstm_cycles.total"]
        + report["lm.output_tile.total"]
    )
    report["budget.am_rate"] = cfg.frame_rate
    report["budget.lm_rate"] = cfg.budget_lm_rate
    report["budget.cycles_per_second"] = hwsim.realtime_budget(
        cfg.frame_rate, cfg.budget_lm_rate, am_rep.total, lm_per
    )
    duration = n_frames / cfg.frame_rate if n_frames else 0.0
    report["budget.measured_lm_rate"] = lm_advances / duration if duration else 0.0

    if cfg.mode == "hwsim":
        report["hw.am.cycles.measured"] = am_runner.datapath.cycles
        report["hw.am.output_tile.measured"] = am_runner.datapath.output_cycles
        if char_lm is not None:
            report["hw.lm.cycles.measured"] = char_lm.datapath.cycles
            report["hw.lm.output_tile.measured"] = char_lm.datapath.output_cycles
            report["hw.context.peak_slots"] = char_lm.memory.peak_live

    report.update(
        hwsim.memory_footprint(
            am.qlayers,
            lm.qlayers if lm is not None else [],
            beam_width=cfg.beam_width,
            cfg=hw,
            am_output=am.qoutput,
            lm_output=lm.qoutput if lm is not None else None,
            lut_entries=am.formats["lut_resolution"],
        )
    )
    report["beam.mean_active"] = bs.active_sum / bs.frames if bs.frames else 0.0
    report["prunes.width"] = bs.width_prunes
    report["prunes.depth"] = bs.depth_prunes
    return report


# ---------------------------------------------------------------------------
# Reports on disk
# ---------------------------------------------------------------------------


def write_report(report: dict, target):
    """Flat 'key value' lines; floats use repr so they read back exactly."""
    def fmt(v):
        if isinstance(v, bool):
            return str(int(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    lines = "".join(f"{k} {fmt(v)}\n" for k, v in report.items())
    if hasattr(target, "write"):
        target.write(lines)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(lines)


def read_report(source) -> dict:
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    out = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out
