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
    UniformCharLm,
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
        lm = UniformCharLm(ABC.n_labels)
        seq, score = brute_force_decode(y, ABC, char_lm=lm, alpha=1.0)
        bs = run_beam(y, ABC, wide_cfg(alpha=1.0), char_lm=lm)
        labels, bscore = bs.best_hypothesis()
        assert labels == seq
        assert abs(bscore - score) < 1e-9


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
    def test_unchanged_when_under_width(self):
        rng = np.random.default_rng(40)
        y = random_posteriors(rng, 3, ABC.posterior_dim)
        bs = run_beam(y, ABC, wide_cfg())
        before = bs.hypotheses()
        bs.prune_width(10_000)
        assert bs.hypotheses() == before

    def test_n1_keeps_single_best(self):
        rng = np.random.default_rng(41)
        y = random_posteriors(rng, 4, ABC.posterior_dim)
        bs = run_beam(y, ABC, wide_cfg())
        best = bs.best_hypothesis()
        bs.prune_width(1)
        assert len(bs.hypotheses()) == 1
        assert bs.best_hypothesis() == best

    def test_top_3_matches_sorting_oracle(self):
        rng = np.random.default_rng(42)
        y = random_posteriors(rng, 4, ABC.posterior_dim)
        bs = run_beam(y, ABC, wide_cfg())
        expected = sorted(bs.hypotheses(), key=lambda h: (-h[1], len(h[0]), h[0]))[:3]
        bs.prune_width(3)
        assert bs.hypotheses() == expected

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
            cfg = BeamConfig(beam_width=16, prune_period=period, alpha=0.5, beta=0.5)
            char_lm = _make_char_lm(lm, RunConfig(mode="float", beam_width=16))
            bs = BeamSearch(alphabet, cfg, char_lm=char_lm, word_lm=word)
            for row in y:
                bs.step(row)
            if period:
                assert bs.depth_prunes > 0
            results.append(bs.best_hypothesis())
        assert all(r == results[0] for r in results), (seed, results)


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
        y = random_posteriors(rng, 10, ABC.posterior_dim) * 0.9
        cfg = BeamConfig(beam_width=6, prune_period=0, validate=False)
        bs = BeamSearch(ABC, cfg)
        mass = bs.tree_mass()
        for row in y:
            bs.step(row)
            new_mass = bs.tree_mass()
            assert new_mass <= mass + 1e-12
            mass = new_mass

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
        # two frames of exact fifty-fifty between A and B produce score ties
        y = np.array([[0.5, 0.5, 0.0, 0.0]] * 1)
        bs = run_beam(y, ABC, wide_cfg())
        bs.prune_width(1)
        labels, _ = bs.best_hypothesis()
        assert labels == [0]  # "A" beats "B" on lexicographic order

    def test_validation_rejects_bad_rows(self):
        bs = BeamSearch(ABC, BeamConfig())
        with pytest.raises(ValueError, match="posteriors"):
            bs.step([0.5, 0.5])
        with pytest.raises(ValueError, match="tolerance"):
            bs.step([0.5, 0.2, 0.1, 0.1])
        with pytest.raises(ValueError, match="negative"):
            bs.step([0.7, 0.5, -0.1, -0.1])

    def test_char_lm_label_count_checked(self):
        with pytest.raises(ValueError, match="label count"):
            BeamSearch(ABC, BeamConfig(), char_lm=UniformCharLm(7))


def assert_pool_links(bs):
    """Each live slot's parent maps back to it through the child table, the
    chain ends at the root, and no free slot is referenced."""
    p = bs.pool
    free = set(p.free)
    assert not free & set(bs.active.tolist()) and bs.root not in free
    for s in bs.active.tolist():
        for _ in range(p.capacity):  # a cycle fails here instead of hanging
            if p.parent[s] < 0:
                break
            assert p.child[p.parent[s], p.label[s]] == s
            s = p.parent[s]
            assert s not in free
        assert s == bs.root
    used = np.array(sorted(set(range(p.capacity)) - free))
    assert not free & set(p.child[used].ravel().tolist())
    assert not free & set(p.parent[used].tolist())


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

    def release(self, state):
        self.calls.append(("release", state))


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
        lm, ref_lm = RecordingTableLm(table), RecordingTableLm(table)
        bs = BeamSearch(WORDY, cfg, char_lm=lm, word_lm=word)
        ref = ReferenceBeamSearch(WORDY, cfg, char_lm=ref_lm, word_lm=word)
        for row in y:
            bs.step(row)
            ref.step(row)
            assert_pool_links(bs)
            p = bs.pool
            got = [
                (tuple(p.labels(s)), p.log_pb[s].tobytes(), p.log_pnb[s].tobytes())
                for s in bs.active.tolist()
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
        assert bs.tree_mass() == ref.tree_mass()
        assert bs.active_sum == sum(ref.active_history)
        assert bs.peak_active == max(ref.active_history)

    def test_all_zero_frame_keeps_the_tree_and_counts_it(self):
        rng = np.random.default_rng(7)
        y = random_posteriors(rng, 9, ABC.posterior_dim)
        y[4] = 0.0  # only possible with validation off
        cfg = BeamConfig(beam_width=3, prune_period=0, validate=False)
        bs, ref = BeamSearch(ABC, cfg), ReferenceBeamSearch(ABC, cfg)
        for row in y:
            bs.step(row)
            ref.step(row)
            want = [(tuple(n.labels_from_root()), n.total) for n in ref.active]
            assert bs.hypotheses() == want
        assert bs.frames == len(ref.active_history) == 9
        # the running sum gives np.mean of the per-frame counts bit for bit
        assert bs.active_sum / bs.frames == float(np.mean(ref.active_history))
        assert bs.peak_active == max(ref.active_history)
