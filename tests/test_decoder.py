"""Beam search tests.

The load-bearing check is oracle equivalence: with the beam wide enough to
hold every reachable prefix, the search must agree exactly with full path
enumeration (brute_force_decode), with and without LM fusion. Hand values
for the tiny cases were derived by listing the alignment paths:

  T=1, y=(A:0.4, blank:0.6):  P("")=0.6, P("A")=0.4
  T=2, y=(A:0.6, blank:0.4):  P("A") = 0.36+0.24+0.24 = 0.84, P("")=0.16
"""

import functools
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasr.container import quantize_model
from qasr.decoder import (
    Alphabet,
    BeamConfig,
    BeamSearch,
    TableCharLm,
    WordRescorer,
    brute_force_decode,
)
from qasr.engine import RunConfig, _make_char_lm
from qasr.rnn import lstm_step, softmax, zero_state
from qasr.toy import ToySpec, build_toy_models, toy_arpa_text
from qasr.wordlm import parse_arpa

from helpers import ReferenceBeamSearch

AB = Alphabet(symbols=("A",))
ABC = Alphabet(symbols=("A", "B", "C"))
WORDY = Alphabet(symbols=("A", "B", " ", "\n"), delimiter=2, eos=3)

WORD_ARPA = """\
\\data\\
ngram 1=3
ngram 2=2
ngram 3=1

\\1-grams:
-0.4\tA\t-0.2
-0.7\tB\t-0.1
-1.0\tAB

\\2-grams:
-0.3\tA B\t-0.15
-0.6\tB A

\\3-grams:
-0.25\tA B A

\\end\\
"""


def wide_cfg(width=4096, **kw):
    return BeamConfig(beam_width=width, prune_period=0, **kw)


def run_beam(y, alphabet, cfg=None, char_lm=None, word_lm=None):
    bs = BeamSearch(alphabet, cfg or wide_cfg(), char_lm=char_lm, word_lm=word_lm)
    for row in y:
        bs.step(row)
    return bs


def random_posteriors(rng, T, dim):
    y = rng.uniform(0.05, 1.0, size=(T, dim))
    return y / y.sum(axis=1, keepdims=True)


def uniform_lm(n_labels):
    return TableCharLm(np.full((n_labels + 1, n_labels), 1.0 / n_labels))


class TestHandCases:
    def test_t1_blank_wins(self):
        bs = run_beam([[0.4, 0.6]], AB)
        labels, score = bs.best_hypothesis()
        assert labels == []
        assert math.exp(score) == pytest.approx(0.6, abs=1e-12)

    def test_t2_label_wins(self):
        y = [[0.6, 0.4], [0.6, 0.4]]
        bs = run_beam(y, AB)
        labels, score = bs.best_hypothesis()
        assert labels == [0]
        assert math.exp(score) == pytest.approx(0.84, abs=1e-12)
        # the empty prefix keeps the remaining 0.16
        hyps = {labels: math.exp(total) for labels, total in bs.hypotheses()}
        assert hyps[()] == pytest.approx(0.16, abs=1e-12)

    def test_t1_matches_oracle(self):
        y = np.array([[0.4, 0.6]])
        seq, score = brute_force_decode(y, AB)
        bs = run_beam(y, AB)
        labels, bscore = bs.best_hypothesis()
        assert labels == seq
        assert bscore == pytest.approx(score, abs=1e-12)

    def test_all_blank_frames(self):
        y = np.array([[0.0, 1.0]] * 3)
        seq, score = brute_force_decode(y, AB)
        assert seq == []
        assert math.exp(score) == pytest.approx(1.0)
        bs = run_beam(y, AB)
        labels, bscore = bs.best_hypothesis()
        assert labels == []
        assert math.exp(bscore) == pytest.approx(1.0, abs=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_no_lm(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 7))
        y = random_posteriors(rng, T, ABC.posterior_dim)
        seq, score = brute_force_decode(y, ABC)
        bs = run_beam(y, ABC)
        labels, bscore = bs.best_hypothesis()
        assert labels == seq
        assert abs(bscore - score) < 1e-9

    @pytest.mark.parametrize("seed", range(12, 20))
    def test_with_char_lm(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 7))
        y = random_posteriors(rng, T, ABC.posterior_dim)
        lm = TableCharLm.random(ABC.n_labels, rng)
        seq, score = brute_force_decode(y, ABC, char_lm=lm, alpha=0.8)
        bs = run_beam(y, ABC, wide_cfg(alpha=0.8), char_lm=lm)
        labels, bscore = bs.best_hypothesis()
        assert labels == seq
        assert abs(bscore - score) < 1e-9

    @pytest.mark.parametrize("seed", range(20, 26))
    def test_with_word_lm(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2, 7))
        y = random_posteriors(rng, T, WORDY.posterior_dim)
        word = WordRescorer(parse_arpa(io.StringIO(WORD_ARPA)), lam=1.0, beta=0.3)
        lm = TableCharLm.random(WORDY.n_labels, rng)
        seq, score = brute_force_decode(y, WORDY, char_lm=lm, word_lm=word, alpha=0.5)
        bs = run_beam(y, WORDY, wide_cfg(alpha=0.5), char_lm=lm, word_lm=word)
        labels, bscore = bs.best_hypothesis()
        assert labels == seq
        assert abs(bscore - score) < 1e-9

    def test_guard_rejects_large_instances(self):
        y = np.full((40, 4), 0.25)
        with pytest.raises(ValueError, match="guard"):
            brute_force_decode(y, ABC)


class TestLmFusion:
    def test_alpha_zero_identical_to_no_lm(self):
        rng = np.random.default_rng(31)
        y = random_posteriors(rng, 5, ABC.posterior_dim)
        lm = TableCharLm.random(ABC.n_labels, rng)
        plain = run_beam(y, ABC, wide_cfg())
        fused = run_beam(y, ABC, wide_cfg(alpha=0.0), char_lm=lm)
        assert plain.hypotheses() == fused.hypotheses()

    def test_uniform_lm_agrees_with_oracle(self):
        rng = np.random.default_rng(32)
        y = random_posteriors(rng, 4, ABC.posterior_dim)
        lm = uniform_lm(ABC.n_labels)
        seq, score = brute_force_decode(y, ABC, char_lm=lm, alpha=1.0)
        bs = run_beam(y, ABC, wide_cfg(alpha=1.0), char_lm=lm)
        labels, bscore = bs.best_hypothesis()
        assert labels == seq
        assert abs(bscore - score) < 1e-9


class TestTableCharLm:
    def test_batch_rows_are_the_per_label_rows(self):
        rng = np.random.default_rng(33)
        table = rng.uniform(0.1, 1.0, size=(ABC.n_labels + 1, ABC.n_labels))
        table /= table.sum(axis=1, keepdims=True)
        lm = TableCharLm(table)
        root, first = lm.start()
        labels = [2, 0, 2, 1, 0]
        states = [root, 3, 1, 1, 2]  # the handle does not move a Markov row
        handles, logp = lm.advance_batch(states, labels)
        assert logp.shape == (len(labels), ABC.n_labels)
        assert first.tobytes() == np.log(table[0]).tobytes()
        for b, k in enumerate(labels):
            [h], [row] = lm.advance_batch([states[b]], [k])
            assert handles[b] == h == k + 1
            assert logp[b].tobytes() == row.tobytes() == np.log(table[k + 1]).tobytes()


class TestWordStates:
    def _spell(self, labels):
        # frames peaked on the requested labels, mass 0.9 on target
        rows = []
        dim = WORDY.posterior_dim
        for k in labels:
            row = np.full(dim, 0.1 / (dim - 1))
            row[k] = 0.9
            rows.append(row)
        return np.array(rows)

    def _word_gain(self, word, spelled, *prefixes):
        """What the word LM adds to each prefix's total on the spelled
        frames: the total with the rescorer minus the total without."""
        y = self._spell(spelled)
        rescored = dict(run_beam(y, WORDY, wide_cfg(), word_lm=word).hypotheses())
        plain = dict(run_beam(y, WORDY, wide_cfg()).hypotheses())
        return [rescored[p] - plain[p] for p in prefixes]

    def test_delimiter_completes_word(self):
        word = WordRescorer(parse_arpa(io.StringIO(WORD_ARPA)), lam=1.0, beta=0.25)
        one, two = self._word_gain(word, [0, 2, 1, 2], (0, 2), (0, 2, 1, 2))  # "A B "
        assert one == pytest.approx(-0.4 * math.log(10) + 0.25, abs=1e-12)
        # the history after "A " is ("A",), so "B" takes the "A B" bi-gram
        assert two == pytest.approx((-0.4 - 0.3) * math.log(10) + 0.5, abs=1e-12)

    def test_eos_flushes_and_resets_history(self):
        word = WordRescorer(parse_arpa(io.StringIO(WORD_ARPA)), lam=1.0, beta=0.0)
        one, two = self._word_gain(word, [0, 3, 1, 2], (0, 3), (0, 3, 1, 2))  # "A\nB "
        assert one == pytest.approx(-0.4 * math.log(10), abs=1e-12)
        # a fresh history after the EOS: "B" takes its uni-gram
        assert two == pytest.approx((-0.4 - 0.7) * math.log(10), abs=1e-12)

    def test_consecutive_delimiters_add_nothing(self):
        word = WordRescorer(parse_arpa(io.StringIO(WORD_ARPA)), lam=1.0, beta=0.5)
        # repeated labels need a blank frame in between to survive collapsing
        one, two, three = self._word_gain(
            word, [0, 2, WORDY.blank, 2, 1, 2], (0, 2), (0, 2, 2), (0, 2, 2, 1, 2)
        )  # "A  B "
        assert two == pytest.approx(one, abs=1e-12)
        # the empty word leaves the history at ("A",)
        assert three == pytest.approx((-0.4 - 0.3) * math.log(10) + 1.0, abs=1e-12)

    def test_beta_only_counts_words(self):
        word = WordRescorer(None, lam=0.0, beta=0.4)
        (gain,) = self._word_gain(word, [0, 2, 1, 2], (0, 2, 1, 2))  # "A B "
        assert gain == pytest.approx(0.8, abs=1e-12)


class TestPruneWidth:
    def test_survivors_ranked_after_each_step(self):
        # exact ties (uniform rows) make the label order decide, too
        rng = np.random.default_rng(42)
        y = random_posteriors(rng, 12, ABC.posterior_dim)
        y[[0, 2, 5, 6]] = 1.0 / ABC.posterior_dim
        bs = BeamSearch(ABC, BeamConfig(beam_width=4, prune_period=0))
        for row in y:
            bs.step(row)
            hyps = bs.hypotheses()
            assert len(hyps) == 4
            assert hyps == sorted(hyps, key=lambda h: (-h[1], len(h[0]), h[0]))

    def test_beam_bound_holds_during_decode(self):
        rng = np.random.default_rng(43)
        y = random_posteriors(rng, 30, ABC.posterior_dim)
        cfg = BeamConfig(beam_width=5, prune_period=0)
        bs = BeamSearch(ABC, cfg)
        for row in y:
            bs.step(row)
            assert len(bs.hypotheses()) <= 5

    def test_revived_interior_survivor_stays_in_the_tree(self):
        # frame 5 revives an inactive interior node while pruning its only
        # child; the dead-leaf trim must not unlink that survivor, or pruning
        # it later deletes the wrong child or raises KeyError
        AB2 = Alphabet(symbols=("A", "B"))
        y = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.5, 0.2],
                      [0.1, 0.8, 0.1], [0.7, 0.1, 0.2], [0.4, 0.3, 0.3]])
        bs = BeamSearch(AB2, BeamConfig(beam_width=2, prune_period=0))
        for row in y:
            bs.step(row)
            assert_pool_links(bs)


class TestPruneDepth:
    def test_shared_prefix_emitted(self):
        # peaked frames force every survivor through the same first labels
        rng = np.random.default_rng(50)
        rows = []
        for k in (0, 1, 0):
            row = np.full(4, 0.01)
            row[k] = 0.97
            rows.append(row / sum(row))
        y = np.array(rows)
        bs = run_beam(y, ABC, BeamConfig(beam_width=2, prune_period=0))
        strings = [labels for labels, _ in bs.hypotheses()]
        emitted = bs.prune_depth()
        lcp = _lcp(strings)
        assert tuple(emitted) == lcp
        assert len(emitted) > 0

    def test_divergent_beams_emit_nothing(self):
        y = np.array([[0.45, 0.45, 0.0, 0.1]])
        bs = run_beam(y, ABC, wide_cfg())
        assert bs.prune_depth() == []

    @pytest.mark.parametrize("seed", range(55, 60))
    def test_matches_lcp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        y = random_posteriors(rng, 12, ABC.posterior_dim)
        bs = run_beam(y, ABC, BeamConfig(beam_width=4, prune_period=0))
        strings = [labels for labels, _ in bs.hypotheses()]
        emitted = bs.prune_depth()
        assert tuple(emitted) == _lcp(strings)

    def test_emission_is_stable_prefix(self):
        rng = np.random.default_rng(60)
        y = random_posteriors(rng, 60, ABC.posterior_dim)
        cfg = BeamConfig(beam_width=3, prune_period=10)
        bs = BeamSearch(ABC, cfg)
        seen = []
        for row in y:
            bs.step(row)
            labels, _ = bs.best_hypothesis()
            assert labels[: len(seen)] == seen  # emitted output never changes
            seen = list(bs.emitted)
        final, _ = bs.best_hypothesis()
        assert final[: len(bs.emitted)] == list(bs.emitted)

    def test_emit_callback_receives_text(self):
        rng = np.random.default_rng(61)
        y = random_posteriors(rng, 30, ABC.posterior_dim)
        chunks = []
        cfg = BeamConfig(beam_width=2, prune_period=5)
        bs = BeamSearch(ABC, cfg, emit=chunks.append)
        for row in y:
            bs.step(row)
        assert "".join(chunks) == ABC.text(bs.emitted)


@functools.lru_cache(maxsize=16)
def tiny_model_decode_inputs(seed, frames=120):
    """Float posteriors of a tiny toy AM on a random-walk stream, its
    character-LM container and the toy word LM."""
    spec = ToySpec("tiny", frames=frames, seed=seed, blank_bias=0.0, out_gain=3.0)
    am, lm = build_toy_models(spec)
    rng = np.random.default_rng(seed + 1)
    feats = np.cumsum(rng.standard_normal((frames, am.input_dim)) * 0.4, axis=0)
    feats = (feats - feats.mean(axis=0)) / (feats.std(axis=0) + 1e-5)
    states = [zero_state(p.hidden) for p in am.layers]
    rows = []
    for x in feats:
        for li, p in enumerate(am.layers):
            x, states[li] = lstm_step(p, x, states[li], mode="float")
        rows.append(softmax(am.output.W @ x + am.output.b))
    word = WordRescorer(parse_arpa(io.StringIO(toy_arpa_text(spec.alphabet))), beta=0.5)
    return spec.alphabet, np.array(rows), quantize_model(lm), word


class TestPruneDepthInvariance:
    """Depth pruning only re-roots the tree at the common ancestor of the
    survivors and emits the labels above it, so the period between prunes
    must not change the decode."""

    @given(seed=st.integers(0, 10_000))
    def test_period_keeps_transcript_and_score(self, seed):
        alphabet, y, lm, word = tiny_model_decode_inputs(seed)
        results = []
        for period in (0, 1, 7, 100):
            cfg = BeamConfig(beam_width=16, prune_period=period, alpha=0.5)
            char_lm = _make_char_lm(lm, RunConfig(mode="float", beam_width=16))
            bs = BeamSearch(alphabet, cfg, char_lm=char_lm, word_lm=word)
            for row in y:
                bs.step(row)
            if period:
                assert bs.depth_prunes > 0
            results.append(bs.best_hypothesis())
        assert all(r == results[0] for r in results), (seed, results)


class TestContextSlotsFollowTheBeam:
    @pytest.mark.parametrize("mode", ["fixed", "hwsim"])
    def test_one_live_slot_per_live_hypothesis(self, mode):
        """A hypothesis that leaves the beam gives its context slot back in
        the same frame, and a new one takes exactly one."""
        alphabet, y, lm, word = tiny_model_decode_inputs(5)
        char_lm = _make_char_lm(lm, RunConfig(mode=mode, beam_width=16))
        cfg = BeamConfig(beam_width=16, prune_period=25)
        bs = BeamSearch(alphabet, cfg, char_lm=char_lm, word_lm=word)
        for row in y:
            bs.step(row)
            assert char_lm.memory.live == bs.active.size
            assert_pool_links(bs)
        assert bs.width_prunes > 0 and bs.depth_prunes > 0
        assert char_lm.advances > 50


class TestOracleReleasesLmStates:
    @pytest.mark.parametrize("mode", ["float", "fixed", "hwsim"])
    def test_brute_force_leaves_context_memory_as_it_was(self, mode):
        alphabet, y, lm, word = tiny_model_decode_inputs(3)
        char_lm = _make_char_lm(lm, RunConfig(mode=mode, beam_width=16))
        root, _ = char_lm.start()
        assert char_lm.memory.live == 1
        brute_force_decode(y[:4], alphabet, char_lm=char_lm, word_lm=word, alpha=0.5)
        assert char_lm.memory.live == 1
        char_lm.release(root)
        assert char_lm.memory.live == 0


class TestSanity:
    def test_mass_non_increasing_substochastic(self):
        rng = np.random.default_rng(70)
        # rows that sum to 1 - 5e-7, inside the posterior row check
        y = random_posteriors(rng, 10, ABC.posterior_dim) * (1 - 5e-7)
        bs = BeamSearch(ABC, BeamConfig(beam_width=6, prune_period=0))

        def mass():
            return sum(math.exp(total) for _, total in bs.hypotheses())

        before = mass()
        for row in y:
            bs.step(row)
            assert mass() <= before + 1e-12
            before = mass()

    def test_probabilities_stay_in_unit_interval(self):
        rng = np.random.default_rng(71)
        y = random_posteriors(rng, 15, ABC.posterior_dim)
        bs = run_beam(y, ABC, BeamConfig(beam_width=8, prune_period=0))
        # both CTC states are at most the total
        for _, total in bs.hypotheses():
            assert total <= 0.0

    def test_deterministic_across_runs(self):
        rng1 = np.random.default_rng(72)
        y = random_posteriors(rng1, 20, ABC.posterior_dim)
        lm = TableCharLm.random(ABC.n_labels, np.random.default_rng(73))
        runs = []
        for _ in range(2):
            bs = run_beam(y, ABC, BeamConfig(beam_width=4, prune_period=7), char_lm=lm)
            runs.append((list(bs.emitted), bs.hypotheses()))
        assert runs[0] == runs[1]

    def test_tie_break_prefers_shorter_then_lex(self):
        # a frame of exact fifty-fifty between A and B produces a score tie
        y = np.array([[0.5, 0.5, 0.0, 0.0]] * 1)
        bs = run_beam(y, ABC, BeamConfig(beam_width=1, prune_period=0))
        assert bs.hypotheses() == [((0,), math.log(0.5))]  # "A" beats "B" on lexicographic order

    def test_validation_rejects_bad_rows(self):
        bs = BeamSearch(ABC, BeamConfig())
        with pytest.raises(ValueError, match="posteriors"):
            bs.step([0.5, 0.5])
        with pytest.raises(ValueError, match="tolerance"):
            bs.step([0.5, 0.2, 0.1, 0.1])
        with pytest.raises(ValueError, match="negative"):
            bs.step([0.7, 0.5, -0.1, -0.1])

    @pytest.mark.parametrize("at", [3, Alphabet.standard().blank])
    def test_validation_rejects_a_non_finite_entry(self, at):
        # a NaN compares False with every bound, so a check that asks
        # "is it out of bounds?" lets it through
        alphabet = Alphabet.standard()
        bs = BeamSearch(alphabet, BeamConfig())
        row = np.full(alphabet.posterior_dim, 1.0 / alphabet.posterior_dim)
        row[at] = np.nan
        with pytest.raises(ValueError, match=f"posterior {at} is not finite"):
            bs.step(row)
        row[at] = np.inf
        with pytest.raises(ValueError, match=f"posterior {at} is not finite"):
            bs.step(row)
        assert bs.frames == 0

    def test_char_lm_label_count_checked(self):
        with pytest.raises(ValueError, match="label count"):
            BeamSearch(ABC, BeamConfig(), char_lm=uniform_lm(7))


def assert_pool_links(bs):
    """Each live slot's parent maps back to it through the child table, the
    chain ends at the root, and no free slot is referenced. Every used slot
    is the root or lies on the path of a live hypothesis, so no dead leaf
    is left behind, and each counts its children."""
    p = bs.pool
    free = set(p.free)
    assert not free & set(bs.active.tolist()) and bs.root not in free
    on_path = {bs.root}
    for s in bs.active.tolist():
        for _ in range(p.capacity):  # a cycle fails here instead of hanging
            on_path.add(s)
            if p.parent[s] < 0:
                break
            assert p.child[p.parent[s], p.label[s]] == s
            s = p.parent[s]
            assert s not in free
        assert s == bs.root
    used = np.array(sorted(set(range(p.capacity)) - free))
    assert set(used.tolist()) == on_path
    assert not free & set(p.child[used].ravel().tolist())
    assert not free & set(p.parent[used].tolist())
    assert (p.n_children[used] == (p.child[used] >= 0).sum(axis=1)).all()


def _lcp(strings):
    if not strings:
        return ()
    first = min(strings, key=len)
    for i in range(len(first)):
        if any(s[i] != first[i] for s in strings):
            return first[:i]
    return tuple(first)


class TestConfigDefaults:
    def test_default_config_is_fresh_per_search(self):
        first = BeamSearch(ABC)
        first.cfg.beam_width = 1
        second = BeamSearch(ABC)
        assert second.cfg is not first.cfg
        assert second.cfg.beam_width == BeamConfig().beam_width


class RecordingTableLm(TableCharLm):
    """TableCharLm that logs every batch advance and every release."""

    def __init__(self, table):
        super().__init__(table)
        self.calls = []

    def advance_batch(self, states, labels):
        self.calls.append(("advance", list(states), [int(k) for k in labels]))
        return super().advance_batch(states, labels)

    def release(self, states):
        self.calls.extend(("release", int(s)) for s in states)


class TestReferenceOracle:
    """The array-backed search against the object-tree ReferenceBeamSearch,
    frame by frame: the same survivors in the same order with bitwise equal
    CTC states, the same LM batches and releases, the same emitted labels."""

    @pytest.mark.parametrize("period", [0, 3])
    @pytest.mark.parametrize("width", range(1, 17))
    def test_steps_match_object_tree(self, width, period):
        rng = np.random.default_rng(100 * width + period)
        y = rng.uniform(0.0, 1.0, size=(40, WORDY.posterior_dim)) ** 3
        y[rng.choice(40, size=10, replace=False)] = 1.0  # uniform rows: exact ties
        y /= y.sum(axis=1, keepdims=True)
        table = rng.uniform(0.1, 1.0, size=(WORDY.n_labels + 1, WORDY.n_labels))
        if width % 3 == 0:
            table[:] = 1.0  # a uniform LM keeps the ties
        table /= table.sum(axis=1, keepdims=True)
        word = WordRescorer(parse_arpa(io.StringIO(WORD_ARPA)), lam=1.0, beta=0.3)
        cfg = BeamConfig(beam_width=width, prune_period=period, alpha=0.5)
        self.step_both(WORDY, cfg, table, word, y)

    def test_steps_match_object_tree_at_the_benchmark_shape(self):
        """The standard alphabet at beam 128 with the default alpha, a table
        LM, an ARPA word LM and depth prunes every 7 frames, over peaky
        random-walk frames: the shape of the busy benchmark streams, the
        only one that fills a 30-label, 128-wide beam, where the new-child
        floor and the cut at the n-th best run."""
        alphabet = Alphabet.standard()
        rng = np.random.default_rng(128)
        walk = np.cumsum(rng.standard_normal((80, alphabet.posterior_dim)) * 0.4, axis=0)
        walk = (walk - walk.mean(axis=0)) / walk.std(axis=0)
        y = np.array([softmax(3.0 * row) for row in walk])
        table = rng.uniform(0.1, 1.0, size=(alphabet.n_labels + 1, alphabet.n_labels))
        table /= table.sum(axis=1, keepdims=True)
        word = WordRescorer(parse_arpa(io.StringIO(toy_arpa_text(alphabet))), beta=0.5)
        cfg = BeamConfig(beam_width=128, prune_period=7)
        bs = self.step_both(alphabet, cfg, table, word, y)
        assert bs.peak_active == 128 and bs.width_prunes > 60 and bs.depth_prunes > 0

    @staticmethod
    def step_both(alphabet, cfg, table, word, y):
        lm, ref_lm = RecordingTableLm(table), RecordingTableLm(table)
        bs = BeamSearch(alphabet, cfg, char_lm=lm, word_lm=word)
        ref = ReferenceBeamSearch(alphabet, cfg, char_lm=ref_lm, word_lm=word)
        for row in y:
            bs.step(row)
            ref.step(row)
            assert_pool_links(bs)
            p = bs.pool
            got = [
                (tuple(p.labels(s)), pb.tobytes(), pnb.tobytes())
                for s, pb, pnb in zip(bs.active.tolist(), bs.log_pb, bs.log_pnb)
            ]
            want = [
                (tuple(n.labels_from_root()),
                 np.float64(n.log_pb).tobytes(), np.float64(n.log_pnb).tobytes())
                for n in ref.active
            ]
            assert got == want
            assert lm.calls == ref_lm.calls
            assert bs.emitted == ref.emitted
            assert (bs.width_prunes, bs.depth_prunes) == (ref.width_prunes, ref.depth_prunes)
        assert bs.best_hypothesis() == ref.best_hypothesis()
        assert bs.active_sum == sum(ref.active_history)
        assert bs.peak_active == max(ref.active_history)
        return bs

    def test_all_zero_frame_keeps_the_tree_and_counts_it(self):
        # the LM gives C zero probability after every context, and frame 4
        # puts all its mass on C: no candidate is left with a finite total
        rng = np.random.default_rng(7)
        y = random_posteriors(rng, 9, ABC.posterior_dim)
        y[4] = [0.0, 0.0, 1.0, 0.0]
        table = rng.uniform(0.1, 1.0, size=(ABC.n_labels + 1, ABC.n_labels))
        table[:, 2] = 0.0
        table /= table.sum(axis=1, keepdims=True)
        cfg = BeamConfig(beam_width=3, prune_period=0, alpha=0.7)
        bs = BeamSearch(ABC, cfg, char_lm=TableCharLm(table))
        ref = ReferenceBeamSearch(ABC, cfg, char_lm=TableCharLm(table))
        seen = []
        for row in y:
            bs.step(row)
            ref.step(row)
            seen.append(bs.hypotheses())
            assert seen[-1] == [(tuple(n.labels_from_root()), n.total) for n in ref.active]
        assert seen[4] == seen[3]
        assert bs.frames == len(ref.active_history) == 9
        # the running sum gives np.mean of the per-frame counts bit for bit
        assert bs.active_sum / bs.frames == float(np.mean(ref.active_history))
        assert bs.peak_active == max(ref.active_history)
