"""Shared test fixtures: random model builders and the two oracles the
engine is checked against.

The straight-line float oracle was written first, directly from the six
recurrence equations, and deliberately avoids every helper the engine uses.
The fixed-point oracle evaluates one gate at a time with its own
re-quantizer, separately from the stacked accumulation and the element-wise
update that the fixed and hwsim datapaths share.

ReferenceBeamSearch is the prefix beam search written over one Python
object per tree node, the oracle for the array-backed BeamSearch.
reference_search_step is the step search on signed values, the oracle for
quant.search_step, which works on magnitudes.
"""

import json
import math
import struct
import warnings
import zlib
from typing import Callable, Optional

import numpy as np

from qasr.container import quantize_layer, quantize_output
from qasr.decoder import NEG_INF, Alphabet, BeamConfig, CharLm, WordRescorer
from qasr.quant import round_half_away
from qasr.rnn import LstmLayerParams, OutputLayerParams, default_format


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


def _requant(acc, from_exp, scheme):
    scaled = acc * 2.0 ** (from_exp - scheme.step_exp)
    m = scheme.max_level
    return np.clip(np.sign(scaled) * np.floor(np.abs(scaled) + 0.5), -m, m)


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
        acc = ax[q.gate_rows(g)] * 2.0 ** (q.wx_exp[g] + ex - e)
        acc = acc + ah[q.gate_rows(g)] * 2.0 ** (q.wh_exp[g] + eh - e)
        bias = q.bias_lev[g] * 2.0 ** (q.bias_exp[g] - e)
        gates.append(acc + (bias[:, None] if acc.ndim == 2 else bias))
    return reference_elementwise_update(q, np.concatenate(gates), c_lev)


def reference_elementwise_update(q, acc, c_lev):
    """Independent reference for the element-wise half of a step, gate by
    gate. Same arguments and result as rnn.elementwise_update."""
    fmt = q.fmt
    ec, e_act = fmt.cell.step_exp, fmt.act_exp
    c_lev = np.asarray(c_lev, dtype=np.float64)

    def gate_acc(g, c_term_lev=None):
        e = q.gate_acc_exp[g]
        a = acc[q.gate_rows(g)]
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


def rewrite_header(src, dst, edit):
    """Copy a container with edit(header) applied and a fresh checksum."""
    body = src.read_bytes()[:-4]
    (head_len,) = struct.unpack("<I", body[6:10])
    header = json.loads(body[10 : 10 + head_len])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    out = body[:6] + struct.pack("<I", len(head)) + head + body[10 + head_len :]
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


def quantize_model(layers, output, weight_bits=6, sig_in_exp=-7, **fmt_kw):
    """Attach quantized twins: first layer uses sig_in_exp, the rest chain
    on the default hidden-signal scheme."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero test layers trip the all-zero fallback
        for li, p in enumerate(layers):
            fmt = default_format(sig_in_exp=sig_in_exp if li == 0 else -7, **fmt_kw)
            p.quantized = quantize_layer(p, fmt, weight_bits=weight_bits)
        if output is not None:
            output.quantized = quantize_output(
                output, layers[-1].quantized.fmt.sig_out, weight_bits=weight_bits
            )
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
        if self.cfg.validate:
            if np.any(y < 0):
                raise ValueError("negative posterior")
            if abs(float(y.sum()) - 1.0) > self.cfg.posterior_tol:
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
            # pathological all-zero frame under disabled validation: the
            # tree keeps its previous state rather than dying
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
            results = self.char_lm.advance_batch(
                [p.lm_state for p in new_parents], new_labels
            )
            for node, (state, logp) in zip(new_nodes, results):
                node.lm_state = state
                node.lm_logp = logp

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
            self.char_lm.release(node.lm_state)
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

    def prune_width(self, n: Optional[int] = None) -> "BeamSearch":
        n = self.cfg.beam_width if n is None else n
        if n < 1:
            raise ValueError("beam width must be >= 1")
        if len(self.active) <= n:
            return self
        totals = np.array([node.total for node in self.active])
        nodes = list(self.active)
        order = self._select_top(totals, nodes, [None] * len(nodes), [None] * len(nodes), n)
        keep = {id(nodes[i]) for i in order}
        for node in nodes:
            if id(node) not in keep:
                self._deactivate(node)
        self.active = [nodes[i] for i in order]
        self.width_prunes += 1
        return self

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

    def transcript(self) -> str:
        labels, _ = self.best_hypothesis()
        return self.alphabet.text(labels)

    def tree_mass(self) -> float:
        return float(sum(np.exp(n.total) for n in self.active))
