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

The tree is kept as arrays in a NodePool, so a frame update is a fixed
sequence of array operations over the live hypotheses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .wordlm import ArpaModel, next_history, rescore

__all__ = [
    "Alphabet",
    "BeamConfig",
    "CharLm",
    "UniformCharLm",
    "TableCharLm",
    "WordRescorer",
    "NodePool",
    "BeamSearch",
    "brute_force_decode",
]

NEG_INF = float("-inf")
FINITE_MIN = float(np.finfo(np.float64).min)


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


class NodePool:
    """The prefix tree as columns over node slots.

    Slot s is one label prefix: its parent slot (-1 at the root), its last
    label, its rank among the live hypotheses (-1 when it is not one), its
    two CTC-state log probabilities, and child[s, k], the slot that extends
    it by label k (-1 when absent). lm_logp[s] is the character-LM
    distribution after the prefix. The LM state and the word state (letters
    of the open word, completed words, the score for completing the open
    word) are kept per slot too, and only new nodes touch them. Free slots
    have no children; they sit on a free list, and the pool doubles when
    that runs dry.
    """

    # name: (dtype, fill, one entry per label)
    COLUMNS = {
        "parent": (np.int64, -1, False),
        "label": (np.int64, 0, False),
        "rank": (np.int64, -1, False),
        "log_pb": (np.float64, NEG_INF, False),
        "log_pnb": (np.float64, NEG_INF, False),
        "flush_delta": (np.float64, 0.0, False),
        "child": (np.int64, -1, True),
        "lm_logp": (np.float64, 0.0, True),
    }
    OBJECTS = {"lm_state": None, "word_buf": (), "word_hist": ()}

    def __init__(self, capacity: int, n_labels: int):
        self.n_labels = n_labels
        self.capacity = 0
        self.free: list = []
        self._grow(capacity)

    def _grow(self, capacity: int):
        old = self.capacity
        for name, (dtype, fill, wide) in self.COLUMNS.items():
            col = np.full((capacity, self.n_labels) if wide else capacity, fill, dtype=dtype)
            col[:old] = getattr(self, name, col[:0])
            setattr(self, name, col)
        for name, fill in self.OBJECTS.items():
            setattr(self, name, getattr(self, name, []) + [fill] * (capacity - old))
        self.free.extend(range(capacity - 1, old - 1, -1))
        self.capacity = capacity

    def alloc(self, n: int) -> np.ndarray:
        while len(self.free) < n:
            self._grow(2 * self.capacity)
        cut = len(self.free) - n
        slots = np.array(self.free[cut:], dtype=np.int64)
        del self.free[cut:]
        return slots

    def release(self, slots: np.ndarray):
        """Return childless slots to the free list."""
        self.parent[slots] = -1
        self.rank[slots] = -1
        self.free.extend(slots.tolist())

    def labels(self, slot: int) -> list:
        """Labels from below the root down to the slot."""
        out = []
        parent, label = self.parent, self.label
        for _ in range(self.capacity):
            if parent[slot] < 0:
                return out[::-1]
            out.append(int(label[slot]))
            slot = parent[slot]
        raise RuntimeError("the prefix tree has a cycle")


class BeamSearch:
    """Online prefix beam search over a posterior stream.

    The live hypotheses are `active`, an array of pool slots in rank order:
    higher total first, then the shorter and then the smaller label
    sequence. Label sequences are only compared inside exact score ties, so
    the order never depends on slot numbers.
    """

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
        self.active_sum = 0  # live hypotheses summed over frames
        self.peak_active = 0
        # live leaves plus their inner nodes; the pool grows if this is short
        self.pool = p = NodePool(min(2 * self.cfg.beam_width + 2, 4096), alphabet.n_labels)
        self.root = int(p.alloc(1)[0])
        p.log_pb[self.root] = 0.0
        if char_lm is not None:
            p.lm_state[self.root], p.lm_logp[self.root] = char_lm.start()
        self._set_active(np.array([self.root]))

    def hypotheses(self) -> list:
        """[(labels below the root, natural-log total)] in rank order."""
        p, act = self.pool, self.active
        tot = np.logaddexp(p.log_pb[act], p.log_pnb[act])
        return [(tuple(p.labels(s)), t) for s, t in zip(act.tolist(), tot.tolist())]

    # -- frame update -------------------------------------------------

    def step(self, posteriors) -> "BeamSearch":
        y = np.asarray(posteriors, dtype=np.float64)
        L = self.alphabet.n_labels
        if y.shape != (L + 1,):
            raise ValueError(f"expected {L + 1} posteriors, got {y.shape}")
        if self.cfg.validate:
            if y.min() < 0:
                raise ValueError("negative posterior")
            if abs(float(y.sum()) - 1.0) > self.cfg.posterior_tol:
                raise ValueError(f"posteriors sum to {y.sum():.9f}, outside tolerance")
        with np.errstate(divide="ignore"):
            logy = np.log(y)

        p, act, n = self.pool, self.active, self.cfg.beam_width
        H = act.size
        pb, pnb = p.log_pb[act], p.log_pnb[act]
        tot = np.logaddexp(pb, pnb)
        last = p.label[act]  # the first root's 0 is harmless: its pnb is -inf
        stay_pb = tot + logy[self.alphabet.blank]
        stay_pnb = pnb + logy[last]

        # extension mass per (hypothesis, label), flat at row * L + label
        ext = np.add.outer(tot, logy[:L])
        ext[np.arange(H), last] = pb + logy[last]  # a repeat must go through a blank
        if self.char_lm is not None and self.cfg.alpha > 0.0:
            ext += self.cfg.alpha * p.lm_logp.take(act, axis=0)
        if self.word_lm is not None:
            flush = p.flush_delta[act]
            for k in (self.alphabet.delimiter, self.alphabet.eos):
                if k is not None:
                    ext[:, k] += flush
        ext = ext.ravel()
        kid = p.child.take(act, axis=0).ravel()

        # an extension into a live child merges with that child's stay; each
        # child has one parent, so no rank is written twice
        with_kid = np.flatnonzero(kid >= 0)
        has = with_kid[ext[with_kid] > NEG_INF]
        pos = p.rank[kid[has]]
        live = pos >= 0
        stay_pnb[pos[live]] = np.logaddexp(stay_pnb[pos[live]], ext[has[live]])
        rev_fi = has[~live]  # extensions that revive a child no longer live
        stay_tot = np.logaddexp(stay_pb, stay_pnb)
        # brand-new children cannot merge, so each raw mass is its own total;
        # anything below the would-be N-th best is dropped before it is
        # materialized. In a full beam that is at least the worst stay.
        new = ext.copy()
        new[with_kid] = NEG_INF
        floor = max(stay_tot.min(), FINITE_MIN) if H == n else FINITE_MIN
        new_fi = np.flatnonzero(new >= floor)
        scores = np.concatenate([stay_tot, ext[rev_fi], new[new_fi]])
        if scores.size > n:
            new_fi = new_fi[new[new_fi] >= np.partition(scores, -n)[-n]]

        # candidates: stays (rank order), then revived, then new children
        fi = np.concatenate([rev_fi, new_fi])
        rows, labels = np.divmod(fi, L)
        c_tot = np.concatenate([stay_tot, ext[fi]])

        def seq(i):
            if i < H:
                return p.labels(act[i])
            return p.labels(act[rows[i - H]]) + [int(labels[i - H])]

        chosen = self._top(c_tot, seq, n)
        self.frames += 1
        if not chosen.size:
            # pathological all-zero frame under disabled validation: the
            # tree keeps its previous state rather than dying
            self.active_sum += H
            return self

        # materialize survivors; batch-advance the char LM for new and
        # revived nodes, in survivor order
        slots = np.concatenate([act, kid[rev_fi], np.full(new_fi.size, -1)])[chosen]
        born = slots < 0
        if born.any():
            at = chosen[born] - H
            slots[born] = self._make_children(act[rows[at]], labels[at])
        grown = chosen >= H
        p.log_pb[slots] = np.concatenate([stay_pb, np.full(fi.size, NEG_INF)])[chosen]
        p.log_pnb[slots] = np.concatenate([stay_pnb, ext[fi]])[chosen]
        if self.char_lm is not None and grown.any():
            at = chosen[grown] - H
            results = self.char_lm.advance_batch(
                [p.lm_state[s] for s in act[rows[at]].tolist()], labels[at].tolist()
            )
            for s, (state, _) in zip(slots[grown].tolist(), results):
                p.lm_state[s] = state
            p.lm_logp[slots[grown]] = [logp for _, logp in results]

        if chosen.size < c_tot.size:
            self.width_prunes += 1
        # rank survivors first: the dead-leaf trim must not unlink a revived one
        gone = np.ones(H, dtype=bool)
        gone[chosen[~grown]] = False
        self._set_active(slots)
        self._deactivate(act[gone])
        self.active_sum += slots.size
        self.peak_active = max(self.peak_active, slots.size)
        if self.cfg.prune_period and self.frames % self.cfg.prune_period == 0:
            self.prune_depth()
        return self

    def _set_active(self, slots: np.ndarray):
        self.active = slots
        self.pool.rank[slots] = np.arange(slots.size)

    def _top(self, tot, seq, n):
        """Indices of the n best finite candidates, best first: higher total,
        then the shorter and then the smaller label sequence seq(i)."""
        order = np.argsort(-tot)
        t = tot[order[: n + 1]]
        end = 0
        for a in np.flatnonzero(t[1:] == t[:-1]).tolist():
            if t[a] == NEG_INF:
                break
            if a < end:
                continue  # inside a tie already sorted
            end = a + 1
            while end < order.size and tot[order[end]] == t[a]:
                end += 1
            order[a:end] = sorted(order[a:end].tolist(), key=lambda i: (len(seq(i)), seq(i)))
        order = order[:n]
        return order[tot[order] > NEG_INF]

    def _make_children(self, parents: np.ndarray, labels: np.ndarray) -> np.ndarray:
        p = self.pool
        slots = p.alloc(parents.size)
        p.parent[slots] = parents
        p.label[slots] = labels
        p.child[parents, labels] = slots
        if self.word_lm is None:
            return slots
        delim, eos = self.alphabet.delimiter, self.alphabet.eos
        for c, q, k in zip(slots.tolist(), parents.tolist(), labels.tolist()):
            if k == delim:
                p.word_buf[c] = ()
                p.word_hist[c] = next_history(self.alphabet.text(p.word_buf[q]), p.word_hist[q])
            elif k == eos:
                p.word_buf[c] = ()
                p.word_hist[c] = ()  # sentence boundary restarts the history
            else:
                p.word_buf[c] = p.word_buf[q] + (k,)
                p.word_hist[c] = p.word_hist[q]
            p.flush_delta[c] = self._flush_delta(c)
        return slots

    def _flush_delta(self, slot: int) -> float:
        """The word LM's score for completing the slot's open word now."""
        buf = self.pool.word_buf[slot]
        if not buf:
            return 0.0
        return self.word_lm.delta(self.alphabet.text(buf), self.pool.word_hist[slot])[0]

    def _deactivate(self, slots: np.ndarray):
        if not slots.size:
            return
        p = self.pool
        p.rank[slots] = -1
        if self.char_lm is not None:
            for s in slots.tolist():
                if p.lm_state[s] is not None:
                    self.char_lm.release(p.lm_state[s])
                p.lm_state[s] = None
        # trim dead leaves so the tree stays bounded
        while slots.size:
            leaves = slots[(p.parent[slots] >= 0) & (p.rank[slots] < 0)]
            leaves = leaves[(p.child[leaves] < 0).all(axis=1)]
            if not leaves.size:
                return
            slots = p.parent[leaves]
            p.child[slots, p.label[leaves]] = -1
            p.release(leaves)
            slots = np.unique(slots) if slots.size > 1 else slots

    # -- pruning and read-out -----------------------------------------

    def _ranked(self, n: int):
        p, act = self.pool, self.active
        tot = np.logaddexp(p.log_pb[act], p.log_pnb[act])
        return self._top(tot, lambda i: p.labels(act[i]), n), tot

    def prune_width(self, n: Optional[int] = None) -> "BeamSearch":
        n = self.cfg.beam_width if n is None else n
        if n < 1:
            raise ValueError("beam width must be >= 1")
        if self.active.size <= n:
            return self
        order, _ = self._ranked(n)
        gone = np.ones(self.active.size, dtype=bool)
        gone[order] = False
        dead = self.active[gone]
        self._set_active(self.active[order])
        self._deactivate(dead)
        self.width_prunes += 1
        return self

    def prune_depth(self):
        """Re-root at the deepest common ancestor of the active set and emit
        its labels. Returns the newly emitted label list."""
        # every leaf below the root is live, so a node that is not live and
        # has one child lies above every live hypothesis
        p = self.pool
        node = self.root
        above, path = [], []
        while p.rank[node] < 0:
            kids = np.flatnonzero(p.child[node] >= 0)
            if kids.size != 1:
                break
            above.append(node)
            path.append(int(kids[0]))
            node = int(p.child[node, kids[0]])
        if above:
            # the node keeps its label, which still drives the repeat rule
            p.child[above] = -1
            p.release(np.array(above))
            p.parent[node] = -1
            self.root = node
            self.emitted.extend(path)
            self.depth_prunes += 1
            if self.emit is not None and path:
                self.emit(self.alphabet.text(path))
        return path

    def best_hypothesis(self):
        """(labels including everything already emitted, natural-log score)."""
        order, tot = self._ranked(1)
        if not order.size:
            raise ValueError("no active hypotheses")
        return list(self.emitted) + self.pool.labels(self.active[order[0]]), float(tot[order[0]])

    def transcript(self) -> str:
        labels, _ = self.best_hypothesis()
        return self.alphabet.text(labels)

    def tree_mass(self) -> float:
        """Total probability over active prefixes (for the sanity property)."""
        p, act = self.pool, self.active
        return float(sum(np.exp(np.logaddexp(p.log_pb[act], p.log_pnb[act])).tolist()))


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
    """The fused LM score of one label sequence. Every char-LM state it
    makes is released, so the LM holds no more states afterwards."""
    total = 0.0
    state = logp = None
    if char_lm is not None and alpha > 0.0:
        state, logp = char_lm.start()
    buf = ()
    hist = ()
    for k in seq:
        if logp is not None:
            total += alpha * logp[k]
            prev = state
            state, logp = char_lm.advance(prev, k)
            char_lm.release(prev)
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
    if logp is not None:
        char_lm.release(state)
    return total
