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
sequence of array operations over the live hypotheses: the extension mass
of every (hypothesis, label) pair in one matrix, merges read through the
live hypotheses' parent links, new children above a floor, one sort of the
candidates, and a trim of dead leaves in one pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .wordlm import ArpaModel, next_history, rescore

__all__ = [
    "Alphabet",
    "BeamConfig",
    "CharLm",
    "TableCharLm",
    "WordRescorer",
    "NodePool",
    "BeamSearch",
    "brute_force_decode",
]

NEG_INF = float("-inf")
FINITE_MIN = float(np.finfo(np.float64).min)
NO_SLOT = -2  # NodePool.rank's entry for the -1 of an absent parent


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
            raise ValueError("symbols hold duplicates")
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


# how far a posterior row's sum may stray from 1
POSTERIOR_TOL = 1e-6


@dataclass
class BeamConfig:
    """The search's own settings. The word-LM weight and insertion bonus
    belong to the WordRescorer."""

    beam_width: int = 128
    alpha: float = 1.0  # character-LM weight
    prune_period: int = 100  # frames between depth prunes, 0 disables

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError(f"beam width must be >= 1, got {self.beam_width}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha (character-LM weight) must be finite, >= 0, got {self.alpha}")
        if self.prune_period < 0:
            raise ValueError(f"prune period must be >= 0, got {self.prune_period}")


# ---------------------------------------------------------------------------
# Scorers
# ---------------------------------------------------------------------------


class CharLm:
    """Character-LM interface over context handles, which are non-negative
    integers, with natural-log distributions over the next label.

    start() -> (handle, logp (L,)): the root context and its distribution.
    advance_batch(states, labels) -> (handles, logp (B, L)): column b
    extends handle states[b] by labels[b]; handle b and row b of logp
    belong to that new context. One call is one batched pass.
    release(states): the search no longer needs the handles, an integer
    array of them.
    """

    n_labels: int

    def start(self):
        raise NotImplementedError

    def advance_batch(self, states, labels):
        raise NotImplementedError

    def release(self, states):
        pass


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

    def advance_batch(self, states, labels):
        rows = np.asarray(labels) + 1
        return rows, self._log[rows]


class WordRescorer:
    """On-the-fly ARPA rescoring: weighted word log-probability plus the
    insertion bonus, in natural log, applied when a word completes.

    A decode asks for the same (word, history) again and again, as the
    beam re-forms one open word under several prefixes, so delta keeps its
    results. The memo holds at most MEMO_SIZE entries and starts afresh
    when full, so it stays bounded on an unbounded stream."""

    MEMO_SIZE = 4096

    def __init__(self, model: Optional[ArpaModel], lam: float = 1.0, beta: float = 0.0):
        self.model = model
        self.lam = lam
        self.beta = beta
        self._memo: dict = {}

    def delta(self, word: str, history: Tuple[str, ...]):
        key = (word, history)
        hit = self._memo.get(key)
        if hit is None:
            if len(self._memo) >= self.MEMO_SIZE:
                self._memo.clear()
            hit = self._memo[key] = rescore(self.model, word, history, lam=self.lam, beta=self.beta)
        return hit


# ---------------------------------------------------------------------------
# Search tree
# ---------------------------------------------------------------------------


class NodePool:
    """The prefix tree as columns over node slots.

    Slot s is one label prefix: its parent slot (-1 at the root), its last
    label, its rank among the live hypotheses (-1 when it is not one), its
    number of children, and child[s, k], the slot that extends it by label
    k (-1 when absent). rank has one entry past the slots, NO_SLOT, so that
    rank[parent[s]] is NO_SLOT at the root and on a free slot. lm_state[s]
    is the character-LM handle of a live hypothesis (stale otherwise) and
    lm_score[s] the LM's log-distribution after the prefix times the fusion
    weight. The word state (the open word's text, the completed words, the
    score for completing the open word) is kept per slot too, and only new
    nodes touch it. Free slots have no children; they sit on a free list,
    and the pool doubles when that runs dry.
    """

    # name: (dtype, fill, one entry per label)
    COLUMNS = {
        "parent": (np.int64, -1, False),
        "label": (np.int64, 0, False),
        "n_children": (np.int64, 0, False),
        "flush_delta": (np.float64, 0.0, False),
        "lm_state": (np.int64, -1, False),
        "child": (np.int64, -1, True),
        "lm_score": (np.float64, 0.0, True),
    }
    OBJECTS = {"word_text": "", "word_hist": ()}

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
        rank = np.full(capacity + 1, -1, dtype=np.int64)
        rank[:old] = getattr(self, "rank", rank[:0])[:old]
        rank[-1] = NO_SLOT
        self.rank = rank
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

    def release(self, slots: list):
        """Return childless slots that are not live, unlinked from their
        parents, to the free list."""
        self.parent[slots] = -1
        self.free.extend(slots)

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
    the order never depends on slot numbers. log_pb and log_pnb hold their
    two CTC states in the same order. The search reads its BeamConfig's
    beam width when it is built.
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
        self._width = n = self.cfg.beam_width
        L = alphabet.n_labels
        # live leaves plus their inner nodes; the pool grows if this is short
        self.pool = p = NodePool(min(2 * n + 2, 4096), L)
        # extension mass, row r for the hypothesis of rank r; the two rows
        # past the last rank stay -inf, so a flat index r * L + k with r -1
        # or NO_SLOT reads -inf
        self._ext = np.full((n + 2, L), NEG_INF)
        self._ranks = np.arange(n)
        self._row_base = self._ranks * L
        # the labels that complete a word
        self._word_ends = [k for k in (alphabet.delimiter, alphabet.eos) if k is not None]
        # the slots that are not live but whose parent is: the children an
        # extension revives
        self._revivable: set = set()
        self.root = int(p.alloc(1)[0])
        if char_lm is not None:
            p.lm_state[self.root], logp = char_lm.start()
            if self._fused():
                p.lm_score[self.root] = self.cfg.alpha * logp
        self._set_active(np.array([self.root]))
        self.log_pb = np.zeros(1)
        self.log_pnb = np.full(1, NEG_INF)
        self._tot = np.zeros(1)

    def _fused(self) -> bool:
        return self.char_lm is not None and self.cfg.alpha > 0.0

    def hypotheses(self) -> list:
        """[(labels below the root, natural-log total)] in rank order."""
        tot = np.logaddexp(self.log_pb, self.log_pnb)
        return [(tuple(self.pool.labels(s)), t) for s, t in zip(self.active.tolist(), tot.tolist())]

    # -- frame update -------------------------------------------------

    def step(self, posteriors) -> "BeamSearch":
        y = np.asarray(posteriors, dtype=np.float64)
        L = self.alphabet.n_labels
        if y.shape != (L + 1,):
            raise ValueError(f"expected {L + 1} posteriors, got {y.shape}")
        values = y.tolist()
        total, low = sum(values), min(values)
        if low < 0:
            raise ValueError("negative posterior")
        if not abs(total - 1.0) <= POSTERIOR_TOL:  # NaN fails here, too
            bad = np.flatnonzero(~np.isfinite(y))
            if bad.size:
                raise ValueError(f"posterior {bad[0]} is not finite ({y[bad[0]]})")
            raise ValueError(f"posteriors sum to {total:.9f}, outside tolerance")
        if low > 0.0:
            logy = np.log(y)
        else:
            with np.errstate(divide="ignore"):
                logy = np.log(y)

        p, act, n = self.pool, self.active, self._width
        H = act.size
        fused = self._fused()
        pb, tot = self.log_pb, self._tot
        last = p.label.take(act)  # the first root's 0 is harmless: its pnb is -inf
        y_last = logy.take(last)
        stay_pb = tot + logy[L]
        stay_pnb = self.log_pnb + y_last

        # extension mass per (hypothesis, label), flat at row * L + label
        ext = self._ext[:H]
        ext[...] = logy[:L]
        ext += tot[:, None]
        flat = self._ext.ravel()
        flat[self._row_base[:H] + last] = pb + y_last  # a repeat must go through a blank
        if fused:
            ext += p.lm_score.take(act, axis=0)
        if self.word_lm is not None:
            flush = p.flush_delta.take(act)
            for k in self._word_ends:
                ext[:, k] += flush

        # a live hypothesis whose parent is live takes that parent's
        # extension into it; every other row reads a -inf row of the buffer
        par = p.rank.take(p.parent.take(act))
        src = par * L
        src += last
        np.logaddexp(stay_pnb, flat.take(src), out=stay_pnb)
        stay_tot = np.logaddexp(stay_pb, stay_pnb)
        flat[src] = NEG_INF  # no new child there
        # a child of a live hypothesis that is not live itself is revived by
        # its extension
        if self._revivable:
            rev = np.fromiter(self._revivable, np.int64, len(self._revivable))
            rev_fi = p.rank.take(p.parent.take(rev)) * L + p.label.take(rev)
            rev_tot = flat.take(rev_fi)
            flat[rev_fi] = NEG_INF
            finite = rev_tot > NEG_INF
            rev, rev_fi, rev_tot = rev[finite], rev_fi[finite], rev_tot[finite]
        else:
            rev = rev_fi = par[:0]
            rev_tot = stay_tot[:0]
        # every other extension makes a brand-new child, which cannot merge,
        # so each raw mass is its own total; anything below the would-be
        # N-th best is dropped before it is materialized. In a full beam that
        # is at least the worst stay.
        floor = max(np.minimum.reduce(stay_tot), FINITE_MIN) if H == n else FINITE_MIN
        new_fi = (ext >= floor).ravel().nonzero()[0]

        # candidates: stays (rank order), then revived, then new children
        c_tot = np.concatenate([stay_tot, rev_tot, flat.take(new_fi)])
        fi = np.concatenate([rev_fi, new_fi]) if rev.size else new_fi

        def seq(i):
            if i < H:
                return p.labels(act[i])
            r, k = divmod(int(fi[i - H]), L)
            return p.labels(act[r]) + [k]

        chosen = self._top(c_tot, seq, n)
        self.frames += 1
        if not chosen.size:
            # no finite candidate, as when the character LM gives zero
            # probability to the only label the frame allows: the tree
            # keeps its previous state rather than dying
            self.active_sum += H
            return self

        # materialize survivors; batch-advance the char LM for new and
        # revived nodes, in survivor order
        slots = act.take(chosen, mode="clip")
        pb = stay_pb.take(chosen, mode="clip")
        pnb = stay_pnb.take(chosen, mode="clip")
        tot = c_tot.take(chosen)
        grown = (chosen >= H).nonzero()[0]
        revived = rev[:0]
        if grown.size:
            at = chosen[grown] - H
            rows, labels = np.divmod(fi[at], L)
            parents = act[rows]
            if rev.size:
                born = at >= rev.size
                revived = rev[at[~born]]
                kids = np.full(at.size, -1)
                kids[~born] = revived
                kids[born] = self._make_children(parents[born], labels[born])
            else:
                kids = self._make_children(parents, labels)
            slots[grown] = kids
            pb[grown] = NEG_INF
            pnb[grown] = tot[grown]
            if self.char_lm is not None:
                p.lm_state[kids], logp = self.char_lm.advance_batch(p.lm_state[parents], labels)
                if fused:
                    p.lm_score[kids] = self.cfg.alpha * logp

        # a width prune drops a stay, a revived child or a new child at or
        # above the n-th best; a new child below it was never a candidate
        lost = H - (slots.size - grown.size)  # stays that leave the beam
        dropped = c_tot.size - chosen.size
        if dropped and not lost and chosen.size == n:
            dropped -= np.count_nonzero(c_tot[H + rev.size :] < tot[-1])
        if dropped:
            self.width_prunes += 1
        self.log_pb, self.log_pnb, self._tot = pb, pnb, tot
        # rank survivors first: the dead-leaf trim must not unlink a revived
        # one, and whether a slot is revivable depends on its parent's rank
        if lost:
            p.rank[act] = -1
        self._set_active(slots)
        if revived.size:
            self._revive(revived.tolist())
        if lost:
            self._deactivate(act[p.rank.take(act) < 0])
        self.active_sum += slots.size
        self.peak_active = max(self.peak_active, slots.size)
        if self.cfg.prune_period and self.frames % self.cfg.prune_period == 0:
            self.prune_depth()
        return self

    def _set_active(self, slots: np.ndarray):
        self.active = slots
        self.pool.rank[slots] = self._ranks[: slots.size]

    def _top(self, tot, seq, n):
        """Indices of the n best finite candidates, best first: higher total,
        then the shorter and then the smaller label sequence seq(i)."""
        order = (-tot).argsort(kind="stable")
        t = tot.take(order[: n + 1])
        end = 0
        for a in (t[1:] == t[:-1]).nonzero()[0].tolist():
            if t[a] == NEG_INF:
                break
            if a < end:
                continue  # inside a tie already sorted
            end = a + 1
            while end < order.size and tot[order[end]] == t[a]:
                end += 1
            order[a:end] = sorted(order[a:end].tolist(), key=lambda i: (len(seq(i)), seq(i)))
        order = order[:n]
        if t[order.size - 1] == NEG_INF:
            order = order[tot.take(order) > NEG_INF]
        return order

    def _make_children(self, parents: np.ndarray, labels: np.ndarray) -> np.ndarray:
        p = self.pool
        slots = p.alloc(parents.size)
        p.parent[slots] = parents
        p.label[slots] = labels
        p.child[parents, labels] = slots
        np.add.at(p.n_children, parents, 1)
        if self.word_lm is None:
            return slots
        delim, eos, symbols = self.alphabet.delimiter, self.alphabet.eos, self.alphabet.symbols
        text, hist, delta = p.word_text, p.word_hist, self.word_lm.delta
        flush = []
        for c, q, k in zip(slots.tolist(), parents.tolist(), labels.tolist()):
            if k == delim:
                text[c] = ""
                hist[c] = next_history(text[q], hist[q])
            elif k == eos:
                text[c] = ""
                hist[c] = ()  # sentence boundary restarts the history
            else:
                text[c] = text[q] + symbols[k]
                hist[c] = hist[q]
            # the word LM's score for completing the open word now
            flush.append(delta(text[c], hist[c])[0] if text[c] else 0.0)
        p.flush_delta[slots] = flush
        return slots

    def _revive(self, slots: list):
        """The slots are live again: they are not revivable, and their
        children that are not live are."""
        p, revivable = self.pool, self._revivable
        revivable.difference_update(slots)
        for kid in p.child[slots].ravel().tolist():
            if kid >= 0 and p.rank[kid] < 0:
                revivable.add(kid)

    def _deactivate(self, slots: np.ndarray):
        """Release the slots' LM states and trim the dead leaves in one
        pass: from each of the slots, free nodes upward while the node is
        not live, childless and below the root. A slot that keeps children
        is revivable while its parent is live, and its children are not."""
        p, revivable = self.pool, self._revivable
        if self.char_lm is not None:
            self.char_lm.release(p.lm_state[slots])
        parent, label, rank, child, n_children = p.parent, p.label, p.rank, p.child, p.n_children
        dead = []
        for s in slots.tolist():
            if n_children[s]:
                revivable.difference_update(child[s].tolist())
                if rank[parent[s]] >= 0:
                    revivable.add(s)
                continue
            while rank[s] < 0 and not n_children[s]:
                q = int(parent[s])
                if q < 0:
                    break
                child[q, label[s]] = -1
                n_children[q] -= 1
                parent[s] = -1  # a later walk stops here
                revivable.discard(s)
                dead.append(s)
                s = q
        p.free.extend(dead)

    # -- pruning and read-out -----------------------------------------

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
            p.n_children[above] = 0
            p.release(above)
            p.parent[node] = -1
            self.root = node
            self.emitted.extend(path)
            self.depth_prunes += 1
            if self.emit is not None and path:
                self.emit(self.alphabet.text(path))
        return path

    def best_hypothesis(self):
        """(labels including everything already emitted, natural-log score)."""
        p, act = self.pool, self.active
        tot = np.logaddexp(self.log_pb, self.log_pnb)
        order = self._top(tot, lambda i: p.labels(act[i]), 1)
        if not order.size:
            raise ValueError("no active hypotheses")
        return list(self.emitted) + p.labels(act[order[0]]), float(tot[order[0]])


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
            [state], [logp] = char_lm.advance_batch([prev], [k])
            char_lm.release([prev])
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
        char_lm.release([state])
    return total
