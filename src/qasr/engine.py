"""End-to-end decoding: wires the frontend, acoustic model, character-LM
fusion and word-LM rescoring together in one of three modes.

float  - double-precision reference forward passes.
fixed  - the quantized integer datapath (rnn.fixed_step_levels).
hwsim  - the PE-array hardware model; bit-identical to fixed, and it also
         accounts clock cycles.

Each mode is one datapath (encode, step, logit_rows and cycle counters,
which stay zero outside hwsim) shared by two runners: _AmRunner steps the
acoustic model a block of consecutive frames at a time, and RnnCharLm
advances the character LM in batches, both on logit_rows' (k, labels) rows.
The LM reduces each row alone, so in fixed and hwsim a column's
log-probabilities are those of a one-column advance. In every mode the
character LM keeps one context-memory slot per live hypothesis, and decode
checks its capacity after each frame. It also keeps each slot's recurrent
products, made by the first advance from the slot and stale once the slot
is stored again, so an advance from a state advanced before makes no
recurrent product. A column's recurrent product has the same bits whatever
batch makes it: in fixed and hwsim its sums are exact, and float makes it
one column at a time (rnn.column_products). hwsim still counts every
column's cycles, as the hardware keeps no products. For two layers at
H = 256 the memo costs 8 KB a slot row in float32 and 16 KB in float64
(RnnCharLm).

In every mode the acoustic model takes a block layer by layer: the input
side of a layer's gates over the whole block first, then the recurrent
product and the element-wise update frame by frame (rnn.fixed_block_levels,
hwsim.simulate_layer_block, rnn.float_block), then the output layer and
the softmax. In fixed and hwsim the input side and the output tile are one
product each over the block; every sum in them is an integer, times a
row's power-of-two factor, in the exact range of its dtype, so the rows
are the bits of a frame-by-frame run.
float's products round, and a product over k columns sums in another order
than k one-column products. So float makes k back-to-back one-column
products on a layer's stacked gate matrix, and the output layer one column
at a time (rnn.column_products): the bits of a frame-by-frame run, with
each matrix read into cache once per block rather than once per frame.

Reports are flat key/value text. Cycle-model numbers are emitted in every
mode (they are analytic); hwsim mode additionally emits measured counters,
which must agree with the model.

A decode feeds the beam search the acoustic model's rows a block at a
time. Where the acoustic model runs depends only on the stream's frames
x beam width. Below WORKER_FRAME_BEAMS the caller steps blocks of
CALLER_BLOCK frames, one whenever the search asks for its next row: a
forked worker costs a decode tens of milliseconds (the fork, the wait
for its first row, copy-on-write faults, the join, and its acoustic
model slowed beside the search), more than the search time it could
hide on such a stream. At or above it the acoustic model runs in a
worker process forked for the decode, beside the search as the paper's
PE arrays run beside the host CPU, and sends each block's posterior rows
through a one-way pipe as soon as they are computed; its blocks grow 1,
2, 4, ... frames up to AM_BLOCK, so that its first row is ready after
one frame. The beam search, both language models, the
context memory and emit stay in the calling process either way, and the
placement moves no bit of the result. The worker needs a platform with
the "fork" start method (Linux, macOS). The two are meant to own one core
each, so for the length of a decode BLAS runs one thread in the caller,
and so in the worker it forks (where numpy's OpenBLAS lets it be set).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import hwsim
from .container import ContainerError, ModelContainer
from .decoder import Alphabet, BeamConfig, BeamSearch, CharLm, WordRescorer
from .frontend import FRAME_RATE
from .hwsim import ContextMemory, HwConfig
from .quant import quantize
from .rnn import (
    LstmState,
    column_products,
    fixed_block_levels,
    fixed_step_levels,
    float_block,
    lstm_step,
    softmax,
    tiled_product,
)
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
BUDGET_LM_RATE = 3840.0  # assumed LM invocations/s in the budget line
AM_BLOCK = 16  # frames in the worker's largest block (see README "Pipeline")
CALLER_BLOCK = 128  # frames in each block the caller steps (see README "Pipeline")
# frames x beam width from which decode steps the acoustic model in a
# forked worker rather than in the caller (see README "Pipeline")
WORKER_FRAME_BEAMS = 10_240


@dataclass
class RunConfig:
    """One decode's settings: beam_width, alpha and prune_period go to the
    BeamConfig, lam and beta to the WordRescorer, hw to the hwsim datapath
    and the cycle model."""

    mode: str = "fixed"
    beam_width: int = BeamConfig.beam_width
    alpha: float = BeamConfig.alpha  # character-LM weight
    lam: float = 1.0  # word-LM weight
    beta: float = 0.0  # word insertion bonus
    prune_period: int = BeamConfig.prune_period  # frames between depth prunes, 0 disables
    hw: HwConfig = field(default_factory=HwConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda (word-LM weight) must be finite and >= 0, got {self.lam}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta (word insertion bonus) must be finite, got {self.beta}")
        self.beam_config()  # BeamConfig checks the search's settings

    def beam_config(self) -> BeamConfig:
        return BeamConfig(self.beam_width, self.alpha, self.prune_period)


@dataclass
class DecodeResult:
    transcript: str
    report: dict
    labels: list


# ---------------------------------------------------------------------------
# Datapaths: one per mode, shared by the acoustic model and the character LM
# ---------------------------------------------------------------------------


class _FloatPath:
    """Double-precision forward passes over the container's float model.
    Its products round, and a product over B columns sums in another order
    than B one-column products. So wherever a column's bits must not depend
    on its batch, in the recurrent product, the acoustic model's block and
    logit_rows, it makes one-column products (rnn.column_products)."""

    cycles = output_cycles = 0  # only the hardware model counts cycles

    def __init__(self, container: ModelContainer):
        fm = container.float_model()
        self.layers = fm.layers
        self.output = fm.output
        self.hidden = [p.hidden for p in self.layers]
        for p in self.layers:  # here, so that a forked worker shares them
            p.stacked()

    def encode(self, x):
        return np.asarray(x, dtype=np.float64)

    def step(self, li, x, h, c, labels=None, recurrent=None):
        """Layer li from the state h, c over the input x, or over the one-hot
        inputs of the labels (x None) in the character LM's first layer.
        recurrent, if given, is recurrent(li, h), made before."""
        h, state = lstm_step(self.layers[li], x, LstmState(h=h, c=c), labels=labels,
                             recurrent=recurrent)
        return h, state.c

    def recurrent(self, li, h):
        """The recurrent product that step makes in layer li from the (H, B)
        outputs h: (4H, B) float64, one column at a time, so a column's bits
        are the same whatever batch makes it."""
        return column_products(self.layers[li].stacked()["wh"], h)

    def steps(self, li, x, h, c):
        """As in the fixed path, with the bits of one step at a time
        (rnn.float_block)."""
        return float_block(self.layers[li], x, h, c)

    def logit_rows(self, h):
        """The (k, labels) logits of the (H, k) outputs of k columns, one
        column at a time: the bits of k one-column products."""
        return column_products(self.output.W, h).T + self.output.b


class _FixedPath:
    """The integer datapath: signals, cells and states are integer levels.

    Its products are exact: every sum is an integer, times its row's
    power-of-two factor in a layer's matrices, in the exact range of its
    dtype, so a column's product has the same bits whatever other columns
    share the product, and logit_rows and rnn.fixed_block_levels make one
    product over all their columns."""

    cycles = output_cycles = 0

    def __init__(self, container: ModelContainer):
        self.qlayers = container.qlayers
        self.qoutput = container.qoutput
        self.scheme = container.feature_scheme
        self.hidden = [q.hidden for q in self.qlayers]
        self.product = tiled_product  # a layer step's matrix product
        for q in self.qlayers:  # here, so that a forked worker shares them
            q.tables()

    def encode(self, x):
        return quantize(x, self.scheme).levels

    def step(self, li, x, h, c, labels=None, recurrent=None):
        """As in the float path, on levels; the labels' input half is read
        from the layer's label table (rnn.fixed_step_levels). recurrent, if
        given, is recurrent(li, h), made before."""
        return fixed_step_levels(self.qlayers[li], x, h, c, labels, recurrent=recurrent)

    def recurrent(self, li, h):
        """The recurrent product that step makes in layer li from the (H, B)
        outputs h: (4H, B) in the layer's matrix dtype, already at
        half-levels, since the rows of the layer's wh carry their factors
        (rnn.QuantizedLstmLayer)."""
        q = self.qlayers[li]
        return self.product(q.wh, np.asarray(h, dtype=q.wh.dtype))

    def steps(self, li, x, h, c):
        """Layer li over the (D, k) inputs of k consecutive frames from the
        (H,) state h, c: the (H, k) outputs and the last cell."""
        return fixed_block_levels(self.qlayers[li], x, h, c)

    def logit_rows(self, h):
        """The (k, labels) logits of the (H, k) outputs of k columns, in one
        product: its sums are exact, so they are the bits of k products."""
        return np.ascontiguousarray(self.qoutput.logits(h).T)


class _HwPath(_FixedPath):
    """The PE-array model: the fixed datapath's bits, with every layer step
    and output tile accounted in clock cycles, once per batch column."""

    def __init__(self, container: ModelContainer, hw: HwConfig):
        super().__init__(container)
        self.hw = hw
        self.product = hwsim._product(hw, 4)

    def step(self, li, x, h, c, labels=None, recurrent=None):
        """A modelled step, its cycles those of a whole step per column, a
        recurrent product made before included: the arrays keep none."""
        state = LstmState(h=h, c=c)
        h, state, cyc = hwsim.simulate_layer(self.qlayers[li], x, state, self.hw, labels,
                                             recurrent)
        self.cycles += cyc.total * (h.shape[1] if h.ndim == 2 else 1)
        return h, state.c

    def steps(self, li, x, h, c):
        state = LstmState(h=h, c=c)
        h, state, cycles = hwsim.simulate_layer_block(self.qlayers[li], x, state, self.hw)
        self.cycles += cycles
        return h, state.c

    def logit_rows(self, h):
        logits, cyc = hwsim.simulate_output_tile(self.qoutput, h, self.hw)
        self.output_cycles += cyc * h.shape[1]
        return np.ascontiguousarray(logits.T)


def _datapath(container, cfg: RunConfig):
    if cfg.mode == "float":
        return _FloatPath(container)
    if cfg.mode == "fixed":
        return _FixedPath(container)
    return _HwPath(container, cfg.hw)


# ---------------------------------------------------------------------------
# Runners: the acoustic model and the character LM
# ---------------------------------------------------------------------------


def _log_softmax(rows):
    """The log-softmax of each row, reduced along that row alone."""
    z = rows - np.max(rows, axis=1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))


class _AmRunner:
    """The acoustic model over one stream, a block of consecutive frames at
    a time, its state held in place between blocks."""

    def __init__(self, datapath, labels: int):
        self.datapath = datapath
        self.labels = labels
        self.states = [(np.zeros(H), np.zeros(H)) for H in datapath.hidden]

    def block(self, feats):
        """The (k, labels) posterior rows of k consecutive feature frames,
        (k, D), each layer over the whole block."""
        dp = self.datapath
        h = dp.encode(feats.T)
        for li, (h_prev, c_prev) in enumerate(self.states):
            h, c = dp.steps(li, h, h_prev, c_prev)
            self.states[li] = (h[:, -1], c)
        return softmax(dp.logit_rows(h))


class RnnCharLm(CharLm):
    """The character LM over a datapath. A context handle is a context-memory
    slot, one per live hypothesis, as on the hardware. The root context is
    the zero state advanced by the EOS label (streams start at a sentence
    boundary); without an EOS it is the zero state, its distribution row
    0 of logit_rows on it, reduced alone as an advance's rows are.

    Each slot's recurrent products are made once. An advance from a
    slot needs every layer's product wh @ h of the slot's stored outputs,
    and a hypothesis is often advanced again, by other labels or in later
    frames. The first advance from a slot makes its products, once for all
    the columns that share it, and keeps them in the memo; later advances
    read them from there. Storing a new state in a slot makes its entry
    stale, so the next advance from it makes the products again. The memo
    holds each layer's product in the layer's matrix dtype, one (4H,) row
    per slot row of the context memory, and grows only when the memory
    does: for two layers at H = 256, 8 KB a slot in float32 and 16 KB in
    float64. A kept product has the bits of the one an advance would make:
    in fixed and hwsim every sum is exact, and the rows of a layer's
    matrices carry their power-of-two factors (rnn.QuantizedLstmLayer), so
    a product is kept at half-levels and an advance adds it to its input
    half as it is; float makes each column's product on its own
    (rnn.column_products), so a column's bits do not depend on the columns
    beside it. hwsim still counts every column's recurrent cycles: the
    modelled hardware keeps no products.
    """

    def __init__(self, datapath, alphabet: Alphabet, capacity: int):
        self.datapath = datapath
        self.n_labels = alphabet.n_labels
        self.eos = alphabet.eos
        self.memory = ContextMemory(capacity)
        self.advances = 0
        # the memo: per layer, the recurrent products of the slots as
        # (memory.rows, 4H) rows, allocated by the first product made; the
        # rows of the slots in _known are current
        self._known = set()
        self._products = [None] * len(datapath.hidden)

    def start(self):
        dp = self.datapath
        [state] = self._store([(np.zeros((H, 1)), np.zeros((H, 1))) for H in dp.hidden])
        if self.eos is not None:
            [primed], [logp] = self.advance_batch([state], [self.eos])
            self.release([state])
            state = primed
        else:
            [logp] = _log_softmax(dp.logit_rows(np.zeros((dp.hidden[-1], 1))))
        # priming is setup, not decode work
        self.advances = dp.cycles = dp.output_cycles = 0
        return state, logp

    def advance_batch(self, states, labels):
        self.advances += len(labels)
        dp = self.datapath
        loaded = self.memory.load(states)
        products = self._recurrent(states, loaded)
        h = None  # the first layer reads the labels
        layers = []
        for li, ((h_prev, c_prev), ah) in enumerate(zip(loaded, products)):
            h, c = dp.step(li, h, h_prev, c_prev, None if li else labels, recurrent=ah)
            layers.append((h, c))
        return self._store(layers), _log_softmax(dp.logit_rows(h))

    def release(self, states):
        self.memory.release(states)

    def _recurrent(self, states, loaded):
        """Every layer's (4H, B) recurrent products of the columns from the
        slots states, whose loaded (h, c) are given, read from the memo;
        the missing ones are made first, once for each slot."""
        slots = np.asarray(states)
        listed = slots.tolist()
        if not self._known.issuperset(listed):
            # slot -> a column that reads it
            first = {s: col for col, s in enumerate(listed) if s not in self._known}
            new, cols = list(first), list(first.values())
            for li, (h_prev, _) in enumerate(loaded):
                made = self.datapath.recurrent(li, h_prev[:, cols])
                if self._products[li] is None:
                    self._products[li] = np.empty((self.memory.rows, len(made)), made.dtype)
                self._products[li][new] = made.T
            self._known.update(new)
        return [p.take(slots, axis=0).T for p in self._products]

    def _store(self, layers):
        """memory.store, each slot handed out dropped from the memo, whose
        rows first grow to the memory's."""
        slots = self.memory.store(layers)
        self._known.difference_update(slots)
        rows = self.memory.rows
        self._products = [p if p is None or len(p) == rows else
                          np.pad(p, ((0, rows - len(p)), (0, 0))) for p in self._products]
        return slots


# The benchmark's tracer resolves these names; they go once ROADMAP item 1
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


def _am_blocks(am_runner, features):
    """The worker's blocks: the (k, labels) posterior rows of blocks of 1,
    2, 4, ... frames, up to AM_BLOCK, each yielded as soon as am_runner has
    stepped it, so that the first row leaves after one frame."""
    t, k = 0, 1
    while t < len(features):
        yield am_runner.block(features[t : t + k])
        t += k
        k = min(2 * k, AM_BLOCK)


def _am_worker(am_runner, features, rows, sink):
    """Worker body: send each block of _am_blocks, its float64 posterior
    rows as one message; then an empty message and the tail: the
    datapath's measured counters, or the exception that stopped it with
    its traceback."""
    rows.close()  # the parent's end; a dead parent then breaks the pipe
    try:
        for block in _am_blocks(am_runner, features):
            sink.send_bytes(block)
        tail = {k: getattr(am_runner.datapath, k) for k in _MEASURED}
    except Exception as exc:  # noqa: BLE001 - the parent re-raises it
        tail = (exc, "".join(traceback.format_exception(exc)))
    sink.send_bytes(b"")
    sink.send(tail)
    sink.close()


def _am_rows(am_runner, features, beam_width):
    """Yield the acoustic model's posterior row for each frame. A stream
    of frames x beam_width below WORKER_FRAME_BEAMS is stepped here in
    blocks of CALLER_BLOCK frames from the first frame, the next block
    whenever the search asks for its next row: nothing runs beside the
    search, so a smaller first block would only read the weights once
    more. A larger stream is computed ahead in a forked worker, whose
    blocks grow from one frame (_am_blocks) so that its first row reaches
    the search early (see README "Pipeline").

    An exception in the acoustic model is raised here with its own type,
    from a worker chained to the worker's traceback; a worker that dies
    raises RuntimeError with its exit code. Once every row is read, the
    worker's measured counters are set on am_runner's datapath. However
    the generator ends, the worker is terminated and joined.
    """
    if len(features) * beam_width < WORKER_FRAME_BEAMS:
        for t in range(0, len(features), CALLER_BLOCK):
            yield from am_runner.block(features[t : t + CALLER_BLOCK])
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
            yield from np.frombuffer(buf).reshape(-1, am_runner.labels)
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


@functools.cache
def _blas_thread_calls():
    """(get, set) for the thread count of numpy's scipy-openblas build,
    found among the libraries this process has loaded; None where numpy
    uses another BLAS or the loaded libraries cannot be listed."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """BLAS runs one thread inside the with statement, in this process and
    in any worker it forks; the caller's count is restored however the
    statement ends. Without the calls, or at one thread already, BLAS is
    left as it is."""
    calls = _blas_thread_calls()
    if calls is None or calls[0]() == 1:
        yield
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _make_am(container, cfg: RunConfig):
    return _AmRunner(_datapath(container, cfg), container.labels)


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
    RunConfig(). The acoustic model runs in the caller, or in a worker
    process forked for the decode once the stream's frames x beam width
    reach WORKER_FRAME_BEAMS (see the module docstring); everything else
    runs in the caller's process. For the decode BLAS runs one thread in
    both, and a saturated float sigmoid's exp overflows without a warning."""
    t0 = time.perf_counter()
    if cfg is None:
        cfg = RunConfig()
    for role, c, kind in (("acoustic model", am, "am"), ("character LM", lm, "lm")):
        if c is not None and c.kind != kind:
            raise ContainerError(f"the {role} is given an {c.kind!r} container, not an {kind!r} one")
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if len(features) and features.shape[1] != am.input_dim:
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

    beam_cfg = cfg.beam_config()
    n_frames = features.shape[0]
    with _one_blas_thread(), np.errstate(over="ignore"):
        am_runner = _make_am(am, cfg)
        char_lm = _make_char_lm(lm, cfg)
        word_lm = None
        if arpa is not None or cfg.beta != 0.0:
            word_lm = WordRescorer(arpa, lam=cfg.lam, beta=cfg.beta)
        bs = BeamSearch(am.alphabet, beam_cfg, char_lm=char_lm, word_lm=word_lm, emit=emit)
        with contextlib.closing(_am_rows(am_runner, features, cfg.beam_width)) as rows:
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
    am_rep = hwsim.network_cycles(am.layer_dims, hw, labels=am.labels)
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
        lm_rep = hwsim.network_cycles(lm.layer_dims, hw, labels=lm.labels)
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
    report["budget.am_rate"] = FRAME_RATE
    report["budget.lm_rate"] = BUDGET_LM_RATE
    report["budget.cycles_per_second"] = hwsim.realtime_budget(
        FRAME_RATE, BUDGET_LM_RATE, am_rep.total, lm_per
    )
    duration = n_frames / FRAME_RATE if n_frames else 0.0
    report["budget.measured_lm_rate"] = lm_advances / duration if duration else 0.0

    if cfg.mode == "hwsim":
        report["hw.am.cycles.measured"] = am_runner.datapath.cycles
        report["hw.am.output_tile.measured"] = am_runner.datapath.output_cycles
        if char_lm is not None:
            report["hw.lm.cycles.measured"] = char_lm.datapath.cycles
            report["hw.lm.output_tile.measured"] = char_lm.datapath.output_cycles
            report["hw.context.peak_slots"] = char_lm.memory.peak_live

    lm_parts = [*lm.qlayers, lm.qoutput] if lm is not None else []
    report.update(hwsim.memory_footprint([*am.qlayers, am.qoutput], lm_parts, cfg.beam_width))
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
