"""End-to-end decoding: wires the frontend, acoustic model, character-LM
fusion and word-LM rescoring together in one of three modes.

float  - double-precision reference forward passes.
fixed  - the quantized integer datapath (rnn.fixed_step_levels).
hwsim  - the PE-array hardware model; bit-identical to fixed, and it also
         accounts clock cycles and context-memory traffic.

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
from .rnn import LstmState, fixed_step_levels, lstm_step, softmax, zero_state
from .wordlm import ArpaModel

__all__ = [
    "RunConfig",
    "DecodeResult",
    "decode",
    "write_report",
    "read_report",
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
# Character-LM scorers over the three datapaths
# ---------------------------------------------------------------------------


def _log_softmax(logits):
    z = logits - np.max(logits, axis=0, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=0, keepdims=True))


class _RnnCharLmBase(CharLm):
    """Shared bookkeeping: the root context is the zero state advanced by
    the EOS label (streams start at a sentence boundary); without an EOS
    the zero state's own output distribution is used."""

    def __init__(self, container: ModelContainer):
        self.container = container
        self.n_labels = container.alphabet.n_labels
        self.eos = container.alphabet.eos
        self.advances = 0

    def start(self):
        state = self._zero_state()
        if self.eos is not None:
            primed, logp = self.advance(state, self.eos)
            self.release(state)
            state = primed
        else:
            logp = self._log_probs(state)
        self._reset_counters()  # priming is setup, not decode work
        return state, logp

    def _reset_counters(self):
        self.advances = 0

    def advance(self, state, label):
        [(new_state, logp)] = self.advance_batch([state], [label])
        return new_state, logp


class FloatCharLm(_RnnCharLmBase):
    def __init__(self, container: ModelContainer):
        super().__init__(container)
        fm = container.float_model()
        self.layers = fm.layers
        self.output = fm.output

    def _zero_state(self):
        return [zero_state(p.hidden) for p in self.layers]

    def _log_probs(self, state):
        logits = self.output.W @ state[-1].h + self.output.b
        return _log_softmax(logits)

    def advance_batch(self, states, labels):
        self.advances += len(labels)
        B = len(labels)
        x = np.zeros((self.n_labels, B))
        x[labels, np.arange(B)] = 1.0
        h = x
        new_stacked = []
        for li, p in enumerate(self.layers):
            st = LstmState(
                h=np.stack([s[li].h for s in states], axis=1),
                c=np.stack([s[li].c for s in states], axis=1),
            )
            h, st_new = lstm_step(p, h, st, mode="float")
            new_stacked.append(st_new)
        logits = self.output.W @ h + self.output.b[:, None]
        logp = _log_softmax(logits)
        out = []
        for b in range(B):
            st = [LstmState(h=s.h[:, b], c=s.c[:, b]) for s in new_stacked]
            out.append((st, logp[:, b]))
        return out


class FixedCharLm(_RnnCharLmBase):
    def __init__(self, container: ModelContainer):
        super().__init__(container)
        self.qlayers = container.qlayers
        self.qoutput = container.qoutput
        step = container.feature_scheme.step
        self.one_hot_level = round(1.0 / step)  # exact for the one-hot input

    def _zero_state(self):
        return [(np.zeros(q.hidden), np.zeros(q.hidden)) for q in self.qlayers]

    def _log_probs(self, state):
        h_lev = state[-1][0]
        return _log_softmax(self.qoutput.logits(h_lev))

    def _input_levels(self, labels):
        B = len(labels)
        x = np.zeros((self.n_labels, B))
        x[labels, np.arange(B)] = self.one_hot_level
        return x

    def advance_batch(self, states, labels):
        self.advances += len(labels)
        x = self._input_levels(labels)
        h = x
        new_layers = []
        for li, q in enumerate(self.qlayers):
            h_prev = np.stack([s[li][0] for s in states], axis=1)
            c_prev = np.stack([s[li][1] for s in states], axis=1)
            h, c = fixed_step_levels(q, h, h_prev, c_prev)
            new_layers.append((h, c))
        logp = _log_softmax(self.qoutput.logits(h))
        out = []
        for b in range(len(labels)):
            st = [(hl[:, b], cl[:, b]) for hl, cl in new_layers]
            out.append((st, logp[:, b]))
        return out


class HwCharLm(_RnnCharLmBase):
    """Character LM on the simulated hardware: recurrent state lives in the
    context memory (one slot per live hypothesis), advances run through the
    PE-array datapath and are cycle-accounted."""

    def __init__(self, container: ModelContainer, hw: HwConfig, beam_width: int):
        super().__init__(container)
        self.qlayers = container.qlayers
        self.qoutput = container.qoutput
        self.hw = hw
        self.memory = ContextMemory(capacity=beam_width)
        self.cycles = 0
        self.output_cycles = 0
        step = container.feature_scheme.step
        self.one_hot_level = round(1.0 / step)
        self._per_advance = sum(
            hwsim.layer_cycles(q.input_dim, q.hidden, hw).total for q in self.qlayers
        )

    def _zero_state(self):
        return self.memory.store([(np.zeros(q.hidden), np.zeros(q.hidden)) for q in self.qlayers])

    def _log_probs(self, slot):
        h_lev = self.memory.load(slot)[-1][0]
        logits, _ = hwsim.simulate_output_tile(self.qoutput, h_lev, self.hw)
        return _log_softmax(logits)

    def advance_batch(self, slots, labels):
        B = len(labels)
        self.advances += B
        x = np.zeros((self.n_labels, B))
        x[labels, np.arange(B)] = self.one_hot_level
        loaded = [self.memory.load(s) for s in slots]
        h = x
        new_layers = []
        for li, q in enumerate(self.qlayers):
            st = LstmState(
                h=np.stack([s[li][0] for s in loaded], axis=1),
                c=np.stack([s[li][1] for s in loaded], axis=1),
            )
            h, st_new, cyc = hwsim.simulate_layer(q, h, st, self.hw)
            self.cycles += cyc.total * B
            new_layers.append(st_new)
        logits, out_cyc = hwsim.simulate_output_tile(self.qoutput, h, self.hw)
        self.output_cycles += out_cyc * B
        logp = _log_softmax(logits)
        out = []
        for b in range(B):
            slot = self.memory.store([(st.h[:, b], st.c[:, b]) for st in new_layers])
            out.append((slot, logp[:, b]))
        return out

    def release(self, slot):
        self.memory.release(slot)

    def _reset_counters(self):
        self.advances = 0
        self.cycles = 0
        self.output_cycles = 0


# ---------------------------------------------------------------------------
# Acoustic-model runners
# ---------------------------------------------------------------------------


class _FloatAm:
    def __init__(self, container: ModelContainer):
        fm = container.float_model()
        self.layers = fm.layers
        self.output = fm.output
        self.states = [zero_state(p.hidden) for p in self.layers]

    def frame(self, x):
        h = np.asarray(x, dtype=np.float64)
        for li, p in enumerate(self.layers):
            h, self.states[li] = lstm_step(p, h, self.states[li], mode="float")
        return softmax(self.output.W @ h + self.output.b)


class _FixedAm:
    def __init__(self, container: ModelContainer):
        self.qlayers = container.qlayers
        self.qoutput = container.qoutput
        self.scheme = container.feature_scheme
        self.states = [(np.zeros(q.hidden), np.zeros(q.hidden)) for q in self.qlayers]

    def frame(self, x):
        h = rescale_levels(x, 0, self.scheme)
        for li, q in enumerate(self.qlayers):
            h_prev, c_prev = self.states[li]
            h, c = fixed_step_levels(q, h, h_prev, c_prev)
            self.states[li] = (h, c)
        return softmax(self.qoutput.logits(h))


class _HwAm:
    def __init__(self, container: ModelContainer, hw: HwConfig):
        self.qlayers = container.qlayers
        self.qoutput = container.qoutput
        self.scheme = container.feature_scheme
        self.hw = hw
        self.states = [LstmState(h=np.zeros(q.hidden), c=np.zeros(q.hidden)) for q in self.qlayers]
        self.cycles = 0
        self.output_cycles = 0

    def frame(self, x):
        h = rescale_levels(x, 0, self.scheme)
        for li, q in enumerate(self.qlayers):
            h, self.states[li], cyc = hwsim.simulate_layer(q, h, self.states[li], self.hw)
            self.cycles += cyc.total
        logits, out_cyc = hwsim.simulate_output_tile(self.qoutput, h, self.hw)
        self.output_cycles += out_cyc
        return softmax(logits)


# counters an acoustic-model runner measures (_HwAm's cycles), carried back
# from the worker in its last message
_MEASURED = ("cycles", "output_cycles")


class _WorkerTraceback(Exception):
    """The worker's formatted traceback, chained as the cause of the
    exception that the parent re-raises."""

    def __str__(self):
        return self.args[0]


def _am_worker(am_runner, features, rows, sink):
    """Worker body: send one float64 posterior row per frame as it is
    computed, then an empty message and the tail: the runner's measured
    counters, or the exception that stopped it with its traceback."""
    rows.close()  # the parent's end; a dead parent then breaks the pipe
    try:
        for x in features:
            sink.send_bytes(am_runner.frame(x))
        tail = {k: getattr(am_runner, k) for k in _MEASURED if hasattr(am_runner, k)}
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
    the worker's measured counters are set on am_runner. However the
    generator ends, the worker is terminated and joined.
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
            setattr(am_runner, k, v)
    finally:
        worker.terminate()
        worker.join()
        worker.close()
        rows.close()


def _make_am(container, cfg: RunConfig):
    if cfg.mode == "float":
        return _FloatAm(container)
    if cfg.mode == "fixed":
        return _FixedAm(container)
    return _HwAm(container, cfg.hw)


def _make_char_lm(container, cfg: RunConfig):
    if container is None:
        return None
    if cfg.mode == "float":
        return FloatCharLm(container)
    if cfg.mode == "fixed":
        return FixedCharLm(container)
    return HwCharLm(container, cfg.hw, cfg.beam_width)


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
            if isinstance(char_lm, HwCharLm):
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
    if lm is not None:
        lm_rep = hwsim.network_cycles(lm.layer_dims, hw, labels=lm.labels, name="lm")
        report.update(
            {
                "lm.advances": lm_advances,
                "lm.lstm_cycles.per_advance": lm_rep.total,
                "lm.output_tile.per_advance": lm_rep.output_tile,
                "lm.lstm_cycles.total": lm_advances * lm_rep.total,
                "lm.output_tile.total": lm_advances * lm_rep.output_tile,
            }
        )
        lm_per = lm_rep.total
    else:
        report.update(
            {
                "lm.advances": 0,
                "lm.lstm_cycles.per_advance": 0,
                "lm.output_tile.per_advance": 0,
                "lm.lstm_cycles.total": 0,
                "lm.output_tile.total": 0,
            }
        )
        lm_per = 0
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
        report["hw.am.cycles.measured"] = am_runner.cycles
        report["hw.am.output_tile.measured"] = am_runner.output_cycles
        if char_lm is not None:
            report["hw.lm.cycles.measured"] = char_lm.cycles
            report["hw.lm.output_tile.measured"] = char_lm.output_cycles
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
