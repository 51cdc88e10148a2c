"""Shared test fixtures: random model builders and the two oracles the
engine is checked against.

The straight-line float oracle was written first, directly from the six
recurrence equations, and deliberately avoids every helper the engine uses.
reference_float_step is the float step as the engine first ran it, eight
per-gate products, its recurrent ones one GEMV per batch column, the
oracle for the bits of the stacked float step and block (rnn.float_step,
rnn.float_block); reference_float_am_rows steps a float acoustic model
through it one frame at a time.
The fixed-point oracle evaluates one gate at a time with its own
re-quantizer, separately from the stacked accumulation and the element-wise
update that the fixed and hwsim datapaths share.

reference_am_rows steps the acoustic model one frame at a time through a
datapath's single step, the oracle for the block stepping of the engine's
acoustic-model runner.

ReferenceBeamSearch is the prefix beam search written over one Python
object per tree node, the oracle for the array-backed BeamSearch.
reference_search_step is the step search on signed values, the oracle for
quant.search_step, which works on magnitudes.

bit_matrix_pack_levels and bit_matrix_unpack_levels are the container's
bit packing as first written, one bit per matrix cell, the oracle for the
whole-byte container.pack_levels and unpack_levels. gather_unpack_levels
reads every value through one gather of 8-byte windows, the oracle for the
group-by-group unpack_levels. one_hot_advance is a character-LM advance
whose first layer multiplies a dense one-hot input, the oracle for the
label table.

reference_parse_arpa is the ARPA reader that tests every line against
every section, the oracle for wordlm.parse_arpa, which reads each n-gram
section in a loop of its own.
"""

import json
import math
import struct
import warnings
import zlib
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from qasr.container import quantize_parts
from qasr.decoder import NEG_INF, POSTERIOR_TOL, Alphabet, BeamConfig, CharLm, WordRescorer
from qasr.rnn import (
    FORMATS,
    TILE_COLUMNS,
    LstmLayerParams,
    OutputLayerParams,
    layer_formats,
    softmax,
    width_key,
)
from qasr.wordlm import UNK, ArpaModel, ArpaParseError

# the column counts either side of each bound of rnn.TILE_COLUMNS
TILE_EDGES = {1, 40, *(b + d for b in (TILE_COLUMNS.start, TILE_COLUMNS.stop) for d in (-1, 0))}


def straight_line_lstm_step(p, x, h_prev, c_prev):
    """Independent reference for one peephole-LSTM step, element by element."""
    H = p.b_i.shape[0]
    i = np.empty(H)
    f = np.empty(H)
    o = np.empty(H)
    c_tilde = np.empty(H)
    c_new = np.empty(H)
    h_new = np.empty(H)
    for n in range(H):
        z_i = np.dot(p.W_xi[n], x) + np.dot(p.W_hi[n], h_prev) + p.w_ci[n] * c_prev[n] + p.b_i[n]
        z_f = np.dot(p.W_xf[n], x) + np.dot(p.W_hf[n], h_prev) + p.w_cf[n] * c_prev[n] + p.b_f[n]
        z_c = np.dot(p.W_xc[n], x) + np.dot(p.W_hc[n], h_prev) + p.b_c[n]
        i[n] = 1.0 / (1.0 + np.exp(-z_i))
        f[n] = 1.0 / (1.0 + np.exp(-z_f))
        c_tilde[n] = np.tanh(z_c)
        c_new[n] = f[n] * c_prev[n] + i[n] * c_tilde[n]
    for n in range(H):
        z_o = np.dot(p.W_xo[n], x) + np.dot(p.W_ho[n], h_prev) + p.w_co[n] * c_new[n] + p.b_o[n]
        o[n] = 1.0 / (1.0 + np.exp(-z_o))
        h_new[n] = o[n] * np.tanh(c_new[n])
    return h_new, c_new


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _peep(w, c):
    return (w[:, None] if c.ndim == 2 else w) * c


def _col(b, x):
    return b[:, None] if x.ndim == 2 else b


def _gemvs(w, h):
    """w @ h, over an (H, B) h one GEMV per column."""
    if h.ndim == 1:
        return w @ h
    return np.stack([w @ h[:, j] for j in range(h.shape[1])], axis=1)


def reference_float_step(p: LstmLayerParams, x, h, c):
    i = _sigmoid(p.W_xi @ x + _gemvs(p.W_hi, h) + _peep(p.w_ci, c) + _col(p.b_i, x))
    f = _sigmoid(p.W_xf @ x + _gemvs(p.W_hf, h) + _peep(p.w_cf, c) + _col(p.b_f, x))
    c_tilde = np.tanh(p.W_xc @ x + _gemvs(p.W_hc, h) + _col(p.b_c, x))
    c_new = f * c + i * c_tilde
    o = _sigmoid(p.W_xo @ x + _gemvs(p.W_ho, h) + _peep(p.w_co, c_new) + _col(p.b_o, x))
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def unstacked_layers(model):
    """Copies of a float model's LSTM layers, each tensor its own array
    rather than a view of a stacked matrix."""
    return [LstmLayerParams(**{n: a.copy() for n, a in p.tensors().items()}) for p in model.layers]


def reference_float_am_rows(model, features):
    """The posterior row of a float acoustic model (a FloatModel) for each
    feature frame, stepped one frame at a time through reference_float_step
    on unstacked copies of its layers."""
    layers = unstacked_layers(model)
    states = [(np.zeros(p.hidden), np.zeros(p.hidden)) for p in layers]
    rows = []
    for x in np.asarray(features, dtype=np.float64):
        h = x
        for li, p in enumerate(layers):
            h, c = reference_float_step(p, h, *states[li])
            states[li] = (h, c)
        rows.append(softmax(model.output.W @ h + model.output.b))
    return rows


def exact_round_half_away(v):
    """sign(v) * floor(|v| + 1/2) in exact rational arithmetic."""
    f = Fraction(float(v))
    return math.copysign(math.floor(abs(f) + Fraction(1, 2)), v)


def round_half_away(x):
    """Round to the nearest integer, ties away from zero, in x's float dtype.

    The reference oracles round with it; the program's one rounder is
    quant.round_saturate, which adds the same addend. Adding the largest
    float below 1/2 with the sign of x, then truncating, is
    exact_round_half_away for every finite x; adding 1/2 itself rounds
    0.49999999999999994 + 0.5 up to 1.
    """
    x = np.asarray(x)
    x = x.astype(np.result_type(x, 0.5), copy=False)
    below_half = np.nextafter(x.dtype.type(0.5), x.dtype.type(0))
    return np.trunc(x + np.copysign(below_half, x))


def _requant(acc, from_exp, scheme):
    """sign(x) * floor(|x| + 0.5), saturated; the sign is copied, so a
    zero level keeps the sign of x, as the datapath's rounding keeps it."""
    scaled = acc * 2.0 ** (from_exp - scheme.step_exp)
    m = scheme.max_level
    return np.clip(np.copysign(np.floor(np.abs(scaled) + 0.5), scaled), -m, m)


def reference_fixed_step_levels(q, x_lev, h_lev, c_lev):
    """Independent reference for one fixed-point step on integer levels,
    gate by gate. Same arguments and result as rnn.fixed_step_levels."""
    fmt = q.fmt
    ex, eh = fmt.sig_in.step_exp, fmt.sig_out.step_exp
    ax = q.wx_lev @ np.asarray(x_lev, dtype=np.float64)
    ah = q.wh_lev @ np.asarray(h_lev, dtype=np.float64)
    gates = []
    for g in range(4):
        e = q.gate_acc_exp[g]
        rows = slice(g * q.hidden, (g + 1) * q.hidden)
        acc = ax[rows] * 2.0 ** (q.wx_exp[g] + ex - e)
        acc = acc + ah[rows] * 2.0 ** (q.wh_exp[g] + eh - e)
        bias = q.bias_lev[g] * 2.0 ** (q.bias_exp[g] - e)
        gates.append(acc + (bias[:, None] if acc.ndim == 2 else bias))
    return reference_elementwise_update(q, np.concatenate(gates), c_lev)


def reference_elementwise_update(q, acc, c_lev):
    """Independent reference for the element-wise half of a step, gate by
    gate. acc holds the stacked gate accumulators, bias included, gate g
    at scale 2**q.gate_acc_exp[g]; the result is that of
    rnn.elementwise_update on the same values at half-levels."""
    fmt = q.fmt
    ec, e_act = fmt.cell.step_exp, fmt.act_exp
    c_lev = np.asarray(c_lev, dtype=np.float64)

    def gate_acc(g, c_term_lev=None):
        e = q.gate_acc_exp[g]
        a = acc[g * q.hidden:(g + 1) * q.hidden]
        if c_term_lev is not None:
            peep = q.peep_lev[g][:, None] if a.ndim == 2 else q.peep_lev[g]
            a = a + peep * c_term_lev * 2.0 ** (q.peep_exp[g] + ec - e)
        return a, e

    acc_i, e_i = gate_acc(0, c_lev)
    acc_f, e_f = gate_acc(1, c_lev)
    acc_ct, e_ct = gate_acc(3)
    i_lev = fmt.lut_sigmoid.apply_levels(_requant(acc_i, e_i, fmt.pre), fmt.pre.step_exp)
    f_lev = fmt.lut_sigmoid.apply_levels(_requant(acc_f, e_f, fmt.pre), fmt.pre.step_exp)
    ct_lev = fmt.lut_tanh.apply_levels(_requant(acc_ct, e_ct, fmt.pre), fmt.pre.step_exp)

    # c_t = f*c_{t-1} + i*c~ ; align the two products before re-quantizing
    e_fc = e_act + ec
    e_ic = 2 * e_act
    e_cell = min(e_fc, e_ic)
    cell_acc = f_lev * c_lev * 2.0 ** (e_fc - e_cell) + i_lev * ct_lev * 2.0 ** (e_ic - e_cell)
    c_new = _requant(cell_acc, e_cell, fmt.cell)

    acc_o, e_o = gate_acc(2, c_new)
    o_lev = fmt.lut_sigmoid.apply_levels(_requant(acc_o, e_o, fmt.pre), fmt.pre.step_exp)
    tanh_c = fmt.lut_tanh.apply_levels(c_new, ec)
    h_new = _requant(o_lev * tanh_c, 2 * e_act, fmt.sig_out)
    return h_new, c_new


def reference_am_rows(datapath, features):
    """The acoustic model's posterior row for each feature frame, stepped
    one frame at a time from the zero state through datapath.step."""
    states = [(np.zeros(H), np.zeros(H)) for H in datapath.hidden]
    rows = []
    for x in features:
        h = datapath.encode(x)
        for li, (h_prev, c_prev) in enumerate(states):
            h, c = datapath.step(li, h, h_prev, c_prev)
            states[li] = (h, c)
        rows.append(softmax(datapath.logit_rows(h[:, None])[0]))
    return rows


def reference_search_step(values, bits):
    """The step search as first written: every candidate exponent rounds
    the signed values half away from zero, saturates and sums the squared
    error. Returns (best exponent, {exponent: SSE}); ties go to the
    smallest step."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    max_abs = float(np.max(np.abs(arr)))
    lo = math.floor(math.log2(max_abs)) - (bits + 2)
    hi = math.ceil(math.log2(max_abs)) + 2
    m = (1 << (bits - 1)) - 1
    sses = {}
    for e in range(lo, hi + 1):
        step = 2.0**e
        lev = np.clip(round_half_away(arr / step), -m, m)
        err = arr - lev * step
        sses[e] = float(np.dot(err, err))
    best = min(sses, key=lambda e: (sses[e], e))
    return best, sses


def bit_matrix_pack_levels(levels, bits):
    """Signed levels as an offset-binary little-endian bitstream, through a
    (count, bits) matrix of bits."""
    vals = (np.asarray(levels, dtype=np.int64).ravel() + (1 << (bits - 1)) - 1).astype(np.uint64)
    bit_matrix = ((vals[:, None] >> np.arange(bits, dtype=np.uint64)) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.ravel(), bitorder="little").tobytes()


def bit_matrix_unpack_levels(data, count, bits):
    """The inverse of bit_matrix_pack_levels, as float64 levels."""
    bit_stream = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little",
                               count=count * bits)
    bit_matrix = bit_stream.reshape(count, bits).astype(np.int64)
    vals = (bit_matrix << np.arange(bits, dtype=np.int64)).sum(axis=1)
    return (vals - ((1 << (bits - 1)) - 1)).astype(np.float64)


def gather_unpack_levels(data, count, bits):
    """The count levels of container.pack_levels' bitstream in data. Each
    value lies in the 8-byte little-endian window at its first byte, below
    a shift of at most 7 bits, so one gather, shift and mask reads them all;
    up to 57 bits. Bits missing past the end of data read as zeros."""
    bit = np.arange(count, dtype=np.int64) * bits
    size = max(len(data), -(-count * bits // 8)) + 8
    raw = np.zeros(-(-size // 8) * 8, dtype=np.uint8)
    raw[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    # one 8-byte little-endian window at every byte offset of raw
    windows = np.lib.stride_tricks.as_strided(raw.view("<u8"), (len(raw) - 7,), (1,))
    mask = np.uint64((1 << bits) - 1)
    vals = (windows[bit >> 3] >> (bit & 7).astype(np.uint64)) & mask
    offset = (1 << (bits - 1)) - 1
    return (vals.astype(np.int64) - offset).astype(np.float64)


def reference_parse_arpa(stream):
    """wordlm.parse_arpa's model of the text lines of stream, or its
    ArpaParseError, from one loop that tests every line against every
    section."""
    declared = {}
    ngrams = {}
    section = None  # None | "data" | order int | "done"
    lineno = 0
    for raw in stream:
        lineno += 1
        line = raw.strip()
        if not line:
            continue
        if line == "\\data\\":
            section = "data"
            continue
        if line.endswith("-grams:") and line.startswith("\\"):
            try:
                order = int(line[1:].split("-")[0])
            except ValueError:
                raise ArpaParseError(f"bad section header {line!r}", lineno)
            if order not in declared:
                raise ArpaParseError(f"section {line!r} was not declared in \\data\\", lineno)
            _reference_section_complete(declared, ngrams, lineno, upto=order)
            section = order
            ngrams[order] = {}
            continue
        if line == "\\end\\":
            _reference_section_complete(declared, ngrams, lineno, upto=None)
            section = "done"
            continue
        if section == "data":
            if not line.startswith("ngram"):
                raise ArpaParseError(f"expected 'ngram N=count', got {line!r}", lineno)
            try:
                spec = line.split(None, 1)[1]
                order_s, count_s = spec.split("=")
                declared[int(order_s)] = int(count_s)
            except (IndexError, ValueError):
                raise ArpaParseError(f"malformed count line {line!r}", lineno)
            continue
        if isinstance(section, int):
            fields = line.split()
            n = section
            if len(fields) == n + 1:
                bow = 0.0
            elif len(fields) == n + 2:
                try:
                    bow = float(fields[-1])
                except ValueError:
                    raise ArpaParseError(f"non-numeric back-off weight {fields[-1]!r}", lineno)
            else:
                raise ArpaParseError(
                    f"expected {n + 1} or {n + 2} fields for a {n}-gram, got {len(fields)}",
                    lineno,
                )
            try:
                logp = float(fields[0])
            except ValueError:
                raise ArpaParseError(f"non-numeric log probability {fields[0]!r}", lineno)
            if not math.isfinite(logp):
                raise ArpaParseError(f"non-finite log probability {fields[0]!r}", lineno)
            if not math.isfinite(bow):
                raise ArpaParseError(f"non-finite back-off weight {fields[-1]!r}", lineno)
            words = tuple(fields[1 : n + 1])
            if len(ngrams[n]) >= declared[n]:
                raise ArpaParseError(f"more {n}-grams than the declared {declared[n]}", lineno)
            ngrams[n][words] = (logp, bow)
            continue
        raise ArpaParseError(f"unexpected content {line!r} before \\data\\", lineno)

    if section != "done":
        raise ArpaParseError("missing \\end\\ marker", lineno + 1)
    if not declared:
        raise ArpaParseError("missing \\data\\ header", lineno + 1)
    order = max(declared)
    if order > 3:
        raise ArpaParseError(f"order {order} not supported (tri-gram maximum)", lineno)
    model = ArpaModel(order=order, ngrams=ngrams)
    unk = model.lookup((UNK,))
    if unk is not None:
        model.unk_log10 = unk[0]
    return model


def _reference_section_complete(declared, ngrams, lineno, upto):
    for order, count in declared.items():
        if upto is not None and order >= upto:
            continue
        got = len(ngrams.get(order, ()))
        if order not in ngrams and count == 0:
            continue
        if got != count:
            raise ArpaParseError(
                f"\\data\\ declared {count} {order}-grams but {got} were listed", lineno
            )


def one_hot_advance(lm, states, labels):
    """An engine.RnnCharLm advance from the context slots states by labels,
    its first layer stepped through the datapath on the dense one-hot input:
    1.0 in float, the level of 1.0 in the first layer's input scheme
    otherwise. Returns every layer's (h, c) and the (B, L) log-probabilities;
    nothing is stored."""
    dp = lm.datapath
    qlayers = getattr(dp, "qlayers", None)
    level = 1.0 if qlayers is None else round(1.0 / qlayers[0].fmt.sig_in.step)
    h = np.zeros((lm.n_labels, len(labels)))
    h[labels, np.arange(len(labels))] = level
    layers = []
    for li, (h_prev, c_prev) in enumerate(lm.memory.load(states)):
        h, c = dp.step(li, h, h_prev, c_prev)
        layers.append((h, c))
    z = dp.logit_rows(h)
    z = z - np.max(z, axis=1, keepdims=True)
    return layers, z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))


def rewrite_header(src, dst, edit, relay=False):
    """Copy a container with edit(header) applied and a fresh checksum.
    With relay, every level tensor is then stored at the width its formats
    key names: bits and nbytes follow it, and the payload is laid out again,
    each tensor's bytes cut or zero-padded to its new byte count."""
    body = src.read_bytes()[:-4]
    (head_len,) = struct.unpack("<I", body[6:10])
    header = json.loads(body[10 : 10 + head_len])
    payload = body[10 + head_len :]
    edit(header)
    if relay:
        blobs = []
        for rec in header["tensors"]:
            blob = payload[rec["offset"] : rec["offset"] + rec["nbytes"]]
            if rec["dtype"] == "levels":
                rec["bits"] = header["formats"][width_key(rec["name"])]
                rec["nbytes"] = max(0, -(-math.prod(rec["shape"]) * rec["bits"] // 8))
            rec["offset"] = sum(map(len, blobs))
            blobs.append(blob[: rec["nbytes"]].ljust(rec["nbytes"], b"\0"))
        payload = b"".join(blobs)
    head = json.dumps(header).encode("utf-8")
    out = body[:6] + struct.pack("<I", len(head)) + head + payload
    dst.write_bytes(out + struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF))


def make_layer(d, h, rng, weight_scale=1.0):
    def mat(rows, cols, fan):
        return rng.normal(0.0, weight_scale / np.sqrt(fan), size=(rows, cols))

    return LstmLayerParams(
        W_xi=mat(h, d, d), W_xf=mat(h, d, d), W_xo=mat(h, d, d), W_xc=mat(h, d, d),
        W_hi=mat(h, h, h), W_hf=mat(h, h, h), W_ho=mat(h, h, h), W_hc=mat(h, h, h),
        w_ci=rng.normal(0.0, 0.1, size=h),
        w_cf=rng.normal(0.0, 0.1, size=h),
        w_co=rng.normal(0.0, 0.1, size=h),
        b_i=rng.normal(0.0, 0.1, size=h),
        b_f=rng.normal(0.0, 0.1, size=h),
        b_o=rng.normal(0.0, 0.1, size=h),
        b_c=rng.normal(0.0, 0.1, size=h),
    )


def make_output(h, labels, rng):
    return OutputLayerParams(
        W=rng.normal(0.0, 1.0 / np.sqrt(h), size=(labels, h)),
        b=rng.normal(0.0, 0.1, size=labels),
    )


def zero_layer(d, h):
    z = LstmLayerParams(
        W_xi=np.zeros((h, d)), W_xf=np.zeros((h, d)), W_xo=np.zeros((h, d)),
        W_xc=np.zeros((h, d)),
        W_hi=np.zeros((h, h)), W_hf=np.zeros((h, h)), W_ho=np.zeros((h, h)),
        W_hc=np.zeros((h, h)),
        w_ci=np.zeros(h), w_cf=np.zeros(h), w_co=np.zeros(h),
        b_i=np.zeros(h), b_f=np.zeros(h), b_o=np.zeros(h), b_c=np.zeros(h),
    )
    return z


def fixed_table(sig_in_exp=-7, **fmt_kw):
    """FORMATS with the inputs at sig_in_exp and fmt_kw's FORMATS keys changed."""
    return dict(FORMATS, sig_in_exp=sig_in_exp, **fmt_kw)


def fixed_formats(n_layers=1, **fmt_kw):
    """layer_formats of fixed_table(**fmt_kw)."""
    return layer_formats(fixed_table(**fmt_kw), n_layers)


def quantize_model(layers, output, weight_bits=FORMATS["weight_bits"], **fmt_kw):
    """Attach quantized twins (container.quantize_parts) to layers and to
    output, unless it is None, on fixed_table(**fmt_kw) with the biases at
    the weight width: the first layer reads sig_in_exp, every later layer
    the one below."""
    formats = fixed_table(weight_bits=weight_bits, bias_bits=weight_bits, **fmt_kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero test layers trip the all-zero fallback
        quantize_parts(layers if output is None else [*layers, output], formats)
    return layers, output


class PrefixNode:
    """One label prefix with its two CTC-state probabilities."""

    __slots__ = (
        "label",
        "parent",
        "children",
        "depth",
        "log_pb",
        "log_pnb",
        "lm_state",
        "lm_logp",
        "word_buf",
        "word_hist",
        "flush_delta",
        "lm_bonus",
        "active",
    )

    def __init__(self, label, parent, depth):
        self.label = label
        self.parent = parent
        self.children = {}
        self.depth = depth
        self.log_pb = NEG_INF
        self.log_pnb = NEG_INF
        self.lm_state = None
        self.lm_logp = None
        self.word_buf = ()
        self.word_hist = ()
        self.flush_delta = 0.0
        self.lm_bonus = 0.0
        self.active = False

    @property
    def total(self) -> float:
        return float(np.logaddexp(self.log_pb, self.log_pnb))

    def labels_from_root(self):
        out = []
        node = self
        while node.parent is not None:
            out.append(node.label)
            node = node.parent
        out.reverse()
        return out


class ReferenceBeamSearch:
    """The prefix beam search over PrefixNode objects, one node per prefix,
    with Python loops over the hypotheses and their children. Same arguments
    and results as qasr.decoder.BeamSearch, which keeps the tree in arrays."""

    def __init__(
        self,
        alphabet: Alphabet,
        cfg: Optional[BeamConfig] = None,
        char_lm: Optional[CharLm] = None,
        word_lm: Optional[WordRescorer] = None,
        emit: Optional[Callable[[str], None]] = None,
    ):
        if char_lm is not None and char_lm.n_labels != alphabet.n_labels:
            raise ValueError("character-LM label count does not match the alphabet")
        self.alphabet = alphabet
        self.cfg = BeamConfig() if cfg is None else cfg
        self.char_lm = char_lm
        self.word_lm = word_lm
        self.emit = emit
        self.emitted: list = []
        self.frames = 0
        self.width_prunes = 0
        self.depth_prunes = 0
        self.active_history: list = []
        root = PrefixNode(label=None, parent=None, depth=0)
        root.log_pb = 0.0
        root.active = True
        if char_lm is not None:
            root.lm_state, root.lm_logp = char_lm.start()
        self.root = root
        self.active = [root]

    # -- frame update -------------------------------------------------

    def step(self, posteriors) -> "BeamSearch":
        y = np.asarray(posteriors, dtype=np.float64)
        L = self.alphabet.n_labels
        if y.shape != (L + 1,):
            raise ValueError(f"expected {L + 1} posteriors, got {y.shape}")
        if np.any(y < 0):
            raise ValueError("negative posterior")
        if abs(float(y.sum()) - 1.0) > POSTERIOR_TOL:
            raise ValueError(f"posteriors sum to {y.sum():.9f}, outside tolerance")
        with np.errstate(divide="ignore"):
            logy = np.log(y)

        active = self.active
        H = len(active)
        pb = np.fromiter((n.log_pb for n in active), dtype=np.float64, count=H)
        pnb = np.fromiter((n.log_pnb for n in active), dtype=np.float64, count=H)
        tot = np.logaddexp(pb, pnb)

        stay_pb = tot + logy[self.alphabet.blank]
        last = np.fromiter(
            (n.label if n.label is not None else 0 for n in active), dtype=np.int64, count=H
        )
        stay_pnb = pnb + logy[last]

        # extension mass per (hypothesis, label)
        ext = np.broadcast_to(tot[:, None], (H, L)).copy()
        ext[np.arange(H), last] = pb  # repeated label must go through a blank
        ext += logy[None, :L]
        if self.char_lm is not None and self.cfg.alpha > 0.0:
            lm_mat = np.stack([n.lm_logp for n in active])
            ext += self.cfg.alpha * lm_mat
        if self.word_lm is not None:
            flush = np.fromiter((n.flush_delta for n in active), dtype=np.float64, count=H)
            if self.alphabet.delimiter is not None:
                ext[:, self.alphabet.delimiter] += flush
            if self.alphabet.eos is not None:
                ext[:, self.alphabet.eos] += flush

        # candidates: stays keyed by node, extensions keyed by (parent, k);
        # an extension into an existing child merges with that child's stay
        cand_node = list(active)
        cand_pb = list(stay_pb)
        cand_pnb = list(stay_pnb)
        cand_parent = [None] * H
        cand_label = [None] * H
        index_of = {id(n): i for i, n in enumerate(active)}
        new_mask = np.ones((H, L), dtype=bool)
        for h, node in enumerate(active):
            for k, child in node.children.items():
                new_mask[h, k] = False
                mass = ext[h, k]
                if mass == NEG_INF:
                    continue
                ci = index_of.get(id(child))
                if ci is None:
                    index_of[id(child)] = len(cand_node)
                    cand_node.append(child)
                    cand_pb.append(NEG_INF)
                    cand_pnb.append(mass)
                    cand_parent.append(node)
                    cand_label.append(k)
                else:
                    cand_pnb[ci] = np.logaddexp(cand_pnb[ci], mass)

        totals = np.logaddexp(np.asarray(cand_pb), np.asarray(cand_pnb))

        # brand-new children cannot merge, so each raw mass is its own total;
        # anything below the would-be N-th best can be dropped before
        # materialization without changing the width-pruned result
        new_masses = np.where(new_mask, ext, NEG_INF)
        flat = new_masses.ravel()
        finite = flat > NEG_INF
        pool = np.concatenate([totals, flat[finite]])
        n_keep = self.cfg.beam_width
        if pool.size > n_keep:
            threshold = np.partition(pool, -n_keep)[-n_keep]
        else:
            threshold = NEG_INF
        keep_idx = np.nonzero(finite & (flat >= threshold))[0]
        for fi in keep_idx:
            h, k = divmod(int(fi), L)
            cand_node.append(None)
            cand_pb.append(NEG_INF)
            cand_pnb.append(flat[fi])
            cand_parent.append(active[h])
            cand_label.append(int(k))
        totals = np.logaddexp(np.asarray(cand_pb), np.asarray(cand_pnb))

        chosen = self._select_top(totals, cand_node, cand_parent, cand_label, n_keep)
        chosen = [ci for ci in chosen if totals[ci] > NEG_INF]
        if not chosen:
            # no finite candidate: the tree keeps its previous state
            # rather than dying
            self.frames += 1
            self.active_history.append(len(self.active))
            return self

        # materialize survivors; batch-advance the char LM for new nodes
        new_nodes = []
        new_parents = []
        new_labels = []
        survivors = []
        for ci in chosen:
            node = cand_node[ci]
            if node is None:
                node = self._make_child(cand_parent[ci], cand_label[ci])
                new_nodes.append(node)
                new_parents.append(cand_parent[ci])
                new_labels.append(cand_label[ci])
            elif not node.active and node.lm_logp is None and self.char_lm is not None:
                # reactivated structural node needs its context rebuilt
                new_nodes.append(node)
                new_parents.append(cand_parent[ci])
                new_labels.append(cand_label[ci])
            node.log_pb = float(cand_pb[ci])
            node.log_pnb = float(cand_pnb[ci])
            survivors.append(node)
        if self.char_lm is not None and new_nodes:
            handles, logp = self.char_lm.advance_batch(
                [p.lm_state for p in new_parents], new_labels
            )
            for node, state, row in zip(new_nodes, handles, logp):
                node.lm_state = state
                node.lm_logp = row

        survivor_set = set(map(id, survivors))
        if len(survivors) < len(cand_node):
            self.width_prunes += 1
        # flag survivors first: the dead-leaf trim must not unlink a revived one
        for node in survivors:
            node.active = True
        for node in active:
            if id(node) not in survivor_set:
                self._deactivate(node)
        self.active = survivors
        self.frames += 1
        self.active_history.append(len(survivors))
        if self.cfg.prune_period and self.frames % self.cfg.prune_period == 0:
            self.prune_depth()
        return self

    def _select_top(self, totals, nodes, parents, labels, n):
        order = sorted(
            range(len(totals)),
            key=lambda i: (
                -totals[i],
                nodes[i].depth if nodes[i] is not None else parents[i].depth + 1,
            ),
        )
        order = self._refine_ties(order, totals, nodes, parents, labels)
        return order[:n]

    def _refine_ties(self, order, totals, nodes, parents, labels):
        # full label sequences are only compared inside exact score/depth ties
        def seq(i):
            if nodes[i] is not None:
                return tuple(nodes[i].labels_from_root())
            return tuple(parents[i].labels_from_root()) + (labels[i],)

        out = []
        i = 0
        while i < len(order):
            j = i + 1
            ti = totals[order[i]]
            while j < len(order) and totals[order[j]] == ti:
                j += 1
            group = order[i:j]
            if len(group) > 1:
                group = sorted(group, key=lambda g: (len(seq(g)), seq(g)))
            out.extend(group)
            i = j
        return out

    def _make_child(self, parent: PrefixNode, k: int) -> PrefixNode:
        child = PrefixNode(label=k, parent=parent, depth=parent.depth + 1)
        parent.children[k] = child
        child.lm_bonus = parent.lm_bonus
        if k == self.alphabet.delimiter:
            child.word_buf = ()
            _, child.word_hist = self._flush(parent)
            child.lm_bonus += parent.flush_delta
        elif k == self.alphabet.eos:
            child.word_buf = ()
            child.word_hist = ()  # sentence boundary restarts the history
            child.lm_bonus += parent.flush_delta
        else:
            child.word_buf = parent.word_buf + (k,)
            child.word_hist = parent.word_hist
        if self.word_lm is not None:
            child.flush_delta, _ = self._flush(child)
        return child

    def _flush(self, node: PrefixNode):
        if self.word_lm is None or not node.word_buf:
            return 0.0, node.word_hist
        word = self.alphabet.text(node.word_buf)
        return self.word_lm.delta(word, node.word_hist)

    def _deactivate(self, node: PrefixNode):
        node.active = False
        node.log_pb = NEG_INF
        node.log_pnb = NEG_INF
        if self.char_lm is not None and node.lm_state is not None:
            self.char_lm.release([node.lm_state])
        node.lm_state = None
        node.lm_logp = None
        # trim dead leaves so the tree stays bounded
        while (
            node is not None
            and not node.active
            and not node.children
            and node.parent is not None
        ):
            del node.parent.children[node.label]
            node = node.parent

    # -- pruning and read-out -----------------------------------------

    def prune_depth(self):
        """Re-root at the deepest common ancestor of the active set and emit
        its labels. Returns the newly emitted label list."""
        marked = set()
        for node in self.active:
            walk = node
            while walk is not None and id(walk) not in marked:
                marked.add(id(walk))
                walk = walk.parent
        node = self.root
        path = []
        active_ids = set(map(id, self.active))
        while id(node) not in active_ids:
            marked_children = [c for c in node.children.values() if id(c) in marked]
            if len(marked_children) != 1:
                break
            node = marked_children[0]
            path.append(node.label)
        if node is not self.root:
            # the node keeps its label and absolute depth: the label still
            # drives the repeated-label rule, depth only matters relatively
            node.parent = None
            self.root = node
            self.emitted.extend(path)
            self.depth_prunes += 1
            if self.emit is not None and path:
                self.emit(self.alphabet.text(path))
        return path

    def best_hypothesis(self):
        """(labels including everything already emitted, natural-log score)."""
        if not self.active:
            raise ValueError("no active hypotheses")
        totals = np.array([node.total for node in self.active])
        nodes = list(self.active)
        order = self._select_top(totals, nodes, [None] * len(nodes), [None] * len(nodes), 1)
        best = nodes[order[0]]
        return list(self.emitted) + best.labels_from_root(), best.total
