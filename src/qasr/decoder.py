"""Tree-structured CTC N-best prefix beam search.

Each tree node is one label prefix, decomposed into two CTC states: the
probability of the prefix with its last frame blank (log_pb) and non-blank
(log_pnb). A frame update follows the usual recursion

    pb(l, t)  = (pb(l, t-1) + pnb(l, t-1)) * y_blank(t)
    pnb(l, t) =  pnb(l, t-1) * y_last(t)
    pnb(l+k, t) += y_k(t) * P_char(k | l)^alpha * (pb(l, t-1)
                   + [k != last(l)] * pnb(l, t-1))

with all scores kept in natural log. Character-LM fusion multiplies
extension mass only; completing a word (extension by the delimiter or the
EOS label) additionally multiplies in the word-LM rescoring factor and the
insertion bonus, so ranking by pb+pnb already ranks rescored hypotheses.

Width pruning keeps the top beam_width prefixes; depth pruning re-roots the
tree at the deepest common ancestor of the surviving hypotheses and emits
its labels, which is what makes unbounded streams decodable online: emitted
labels never change afterwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .wordlm import ArpaModel, rescore

__all__ = [
    "Alphabet",
    "BeamConfig",
    "CharLm",
    "UniformCharLm",
    "TableCharLm",
    "WordRescorer",
    "PrefixNode",
    "BeamSearch",
    "brute_force_decode",
]

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Alphabet:
    """Output labels of the acoustic model, minus the CTC blank.

    The blank takes the last posterior index, so the acoustic model emits
    n_labels + 1 probabilities while the character LM emits n_labels.
    """

    symbols: Tuple[str, ...]
    delimiter: Optional[int] = None
    eos: Optional[int] = None

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols")
        for name in ("delimiter", "eos"):
            idx = getattr(self, name)
            if idx is not None and not 0 <= idx < len(self.symbols):
                raise ValueError(f"{name} index out of range")

    @property
    def n_labels(self) -> int:
        return len(self.symbols)

    @property
    def blank(self) -> int:
        return len(self.symbols)

    @property
    def posterior_dim(self) -> int:
        return len(self.symbols) + 1

    def text(self, labels: Sequence[int]) -> str:
        return "".join(self.symbols[i] for i in labels)

    @classmethod
    def standard(cls) -> "Alphabet":
        """26 letters, space/period/apostrophe, newline as end of sentence:
        30 labels, 31 acoustic outputs with the blank."""
        symbols = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ") + (" ", ".", "'", "\n")
        return cls(symbols=symbols, delimiter=26, eos=29)


@dataclass
class BeamConfig:
    beam_width: int = 128
    alpha: float = 1.0  # character-LM weight
    lam: float = 1.0  # word-LM weight
    beta: float = 0.0  # word insertion bonus
    prune_period: int = 100  # frames between depth prunes
    posterior_tol: float = 1e-6
    validate: bool = True

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam width must be >= 1")
        if self.alpha < 0 or self.lam < 0:
            raise ValueError("LM weights must be non-negative")


# ---------------------------------------------------------------------------
# Scorers
# ---------------------------------------------------------------------------


class CharLm:
    """Character-LM interface: an opaque context handle plus the natural-log
    distribution over the next label given the handle's history."""

    n_labels: int

    def start(self):
        raise NotImplementedError

    def advance(self, state, label: int):
        raise NotImplementedError

    def advance_batch(self, states, labels):
        return [self.advance(s, k) for s, k in zip(states, labels)]

    def release(self, state):
        pass


class UniformCharLm(CharLm):
    def __init__(self, n_labels: int):
        self.n_labels = n_labels
        self._logp = np.full(n_labels, -np.log(n_labels))

    def start(self):
        return None, self._logp

    def advance(self, state, label):
        return None, self._logp


class TableCharLm(CharLm):
    """Markov table: row 0 is the start context, row 1+k follows label k."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=np.float64)
        if table.shape[0] != table.shape[1] + 1:
            raise ValueError("table must be (n_labels + 1, n_labels)")
        if not np.allclose(table.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("rows must be distributions")
        self.n_labels = table.shape[1]
        with np.errstate(divide="ignore"):
            self._log = np.log(table)

    @classmethod
    def random(cls, n_labels: int, rng) -> "TableCharLm":
        t = rng.uniform(0.1, 1.0, size=(n_labels + 1, n_labels))
        return cls(t / t.sum(axis=1, keepdims=True))

    def start(self):
        return 0, self._log[0]

    def advance(self, state, label):
        return label + 1, self._log[label + 1]


class WordRescorer:
    """On-the-fly ARPA rescoring: weighted word log-probability plus the
    insertion bonus, in natural log, applied when a word completes."""

    def __init__(self, model: Optional[ArpaModel], lam: float = 1.0, beta: float = 0.0):
        self.model = model
        self.lam = lam
        self.beta = beta

    def delta(self, word: str, history: Tuple[str, ...]):
        return rescore(self.model, word, history, lam=self.lam, beta=self.beta)


# ---------------------------------------------------------------------------
# Search tree
# ---------------------------------------------------------------------------


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


class BeamSearch:
    """Online prefix beam search over a posterior stream."""

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
        """Total probability over active prefixes (for the sanity property)."""
        return float(sum(np.exp(n.total) for n in self.active))


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------


def brute_force_decode(
    posteriors,
    alphabet: Alphabet,
    char_lm: Optional[CharLm] = None,
    word_lm: Optional[WordRescorer] = None,
    alpha: float = 1.0,
    guard: int = 10**7,
):
    """Enumerate every alignment path, collapse repeats and blanks, sum the
    path probabilities per label sequence (times the fused LM factors) and
    return the argmax sequence with its natural-log score.

    Only feasible for tiny instances; refuses anything above the guard.
    """
    y = np.asarray(posteriors, dtype=np.float64)
    T, dim = y.shape
    if dim != alphabet.posterior_dim:
        raise ValueError("posterior width does not match the alphabet")
    n_paths = dim**T
    if n_paths > guard:
        raise ValueError(f"{n_paths} paths exceed the enumeration guard")
    blank = alphabet.blank

    seq_prob: dict = {}
    for path in itertools.product(range(dim), repeat=T):
        prob = 1.0
        for t, s in enumerate(path):
            prob *= y[t, s]
        out = []
        prev = blank
        for s in path:
            if s != blank and s != prev:
                out.append(s)
            prev = s
        key = tuple(out)
        seq_prob[key] = seq_prob.get(key, 0.0) + prob

    best_key, best_score = None, NEG_INF
    for seq, prob in seq_prob.items():
        if prob <= 0.0:
            continue
        score = np.log(prob) + _lm_factor(seq, alphabet, char_lm, word_lm, alpha)
        better = False
        if score > best_score:
            better = True
        elif score == best_score and best_key is not None:
            better = (len(seq), seq) < (len(best_key), best_key)
        if better:
            best_key, best_score = seq, score
    return list(best_key or ()), float(best_score)


def _lm_factor(seq, alphabet, char_lm, word_lm, alpha):
    total = 0.0
    state = logp = None
    if char_lm is not None and alpha > 0.0:
        state, logp = char_lm.start()
    buf = ()
    hist = ()
    for k in seq:
        if logp is not None:
            total += alpha * logp[k]
            state, logp = char_lm.advance(state, k)
        if word_lm is not None:
            if k == alphabet.delimiter or k == alphabet.eos:
                if buf:
                    delta, hist = word_lm.delta(alphabet.text(buf), hist)
                    total += delta
                buf = ()
                if k == alphabet.eos:
                    hist = ()
            else:
                buf = buf + (k,)
    return total
