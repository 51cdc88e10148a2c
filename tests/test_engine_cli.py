"""End-to-end engine and CLI tests on generated toy models."""

import dataclasses
import functools
import io
import multiprocessing
import os
import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qasr.decoder as decoder
import qasr.engine as engine
import qasr.rnn as rnn
import qasr.wordlm as wordlm
from qasr.cli import main_decode, main_quantize
from qasr.container import ContainerError, ModelContainer, quantize_model
from qasr.decoder import BeamSearch, WordRescorer
from qasr.engine import RunConfig, decode, read_report, write_report
from qasr.frontend import read_feature_file, write_feature_file
from qasr.hwsim import HwConfig, layer_cycles, output_tile_cycles, realtime_budget
from qasr.toy import ToySpec, build_toy_models, gen_toy, toy_arpa_text
from qasr.wordlm import parse_arpa_file

from helpers import (
    TILE_EDGES,
    one_hot_advance,
    reference_am_rows,
    reference_float_am_rows,
    reference_float_step,
    rewrite_header,
    unstacked_layers,
)


def toy_inputs(spec, out):
    paths = gen_toy(spec, out)
    return {
        "paths": paths,
        "am": ModelContainer.read(paths["am"]),
        "lm": ModelContainer.read(paths["lm"]),
        "arpa": parse_arpa_file(paths["arpa"]),
        "features": read_feature_file(paths["features"])[0],
    }


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    return toy_inputs("tiny,frames=80,seed=9", tmp_path_factory.mktemp("toy"))


@pytest.fixture(scope="module")
def busy_toy(tmp_path_factory):
    """No blank tilt and peaked posteriors: the beam turns over often, so
    the character LM and the context memory do real work (142 LM advances
    at beam 16, against 15 on toy)."""
    spec = "tiny,frames=200,seed=9,blank_bias=0,out_gain=3"
    return toy_inputs(spec, tmp_path_factory.mktemp("busy_toy"))


def run(toy, mode, beam=16, **kw):
    cfg = RunConfig(mode=mode, beam_width=beam, prune_period=25, **kw)
    return decode(toy["am"], toy["lm"], toy["arpa"], toy["features"], cfg)


class TestDecodeModes:
    def test_all_modes_produce_transcripts(self, toy):
        for mode in ("float", "fixed", "hwsim"):
            res = run(toy, mode)
            assert isinstance(res.transcript, str)
            assert res.report["mode"] == mode
            assert res.report["frames"] == 80

    def test_fixed_and_hwsim_transcripts_identical(self, toy):
        fixed = run(toy, "fixed")
        hw = run(toy, "hwsim")
        assert fixed.transcript == hw.transcript
        assert fixed.labels == hw.labels

    def test_deterministic_across_runs(self, toy):
        a = run(toy, "fixed")
        b = run(toy, "fixed")
        assert a.transcript == b.transcript
        ra = {k: v for k, v in a.report.items() if k != "wall.seconds"}
        rb = {k: v for k, v in b.report.items() if k != "wall.seconds"}
        assert ra == rb

    def test_default_config_is_fresh_per_decode(self, toy, monkeypatch):
        import qasr.engine as engine

        seen = []
        make_am = engine._make_am

        def spy(container, cfg):
            seen.append(cfg)
            return make_am(container, cfg)

        monkeypatch.setattr(engine, "_make_am", spy)
        feats = toy["features"][:5]
        first = decode(toy["am"], None, None, feats)
        seen[0].beam_width = 1  # a caller mutating the config it was handed
        second = decode(toy["am"], None, None, feats)
        assert seen[1] is not seen[0]
        assert second.report["beam.width"] == first.report["beam.width"] == RunConfig().beam_width

    def test_empty_stream(self, toy):
        cfg = RunConfig(mode="hwsim", beam_width=4)
        res = decode(toy["am"], toy["lm"], toy["arpa"], np.zeros((0, 12)), cfg)
        assert res.transcript == ""
        assert res.report["cycles.total"] == 0

    def test_decode_without_lms(self, toy):
        cfg = RunConfig(mode="fixed", beam_width=8)
        res = decode(toy["am"], None, None, toy["features"], cfg)
        assert res.report["lm.advances"] == 0
        assert res.report["lm.lstm_cycles.total"] == 0

    def test_feature_dim_mismatch_rejected(self, toy):
        with pytest.raises(ContainerError, match="features"):
            decode(toy["am"], None, None, np.zeros((3, 7)), RunConfig(mode="fixed"))

    def test_alphabet_mismatch_rejected(self, toy, tmp_path):
        other = gen_toy(ToySpec("small", frames=1, seed=2), tmp_path / "small")
        small_lm = ModelContainer.read(other["lm"])
        with pytest.raises(ContainerError, match="alphabet"):
            decode(toy["am"], small_lm, None, toy["features"], RunConfig(mode="fixed"))


@contextmanager
def no_hang(seconds=60):
    """Fail the test instead of hanging if the block outlives seconds. The
    failure is not an OSError, which multiprocessing's waits swallow, and
    it kills the workers left so that the interpreter can still exit."""
    def expire(signum, frame):
        for p in multiprocessing.active_children():
            p.kill()
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def fail_at_frame(monkeypatch, cls, k, fail):
    """Make cls.block call fail() on the block that holds frame k (0-based)."""
    block = cls.block
    seen = [0]

    def patched(self, feats):
        if seen[0] <= k < seen[0] + len(feats):
            fail()
        seen[0] += len(feats)
        return block(self, feats)

    monkeypatch.setattr(cls, "block", patched)


def spy_rows(monkeypatch):
    """Record a copy of every posterior row that BeamSearch.step is given."""
    stepped = []
    step = BeamSearch.step

    def spy(self, posteriors):
        stepped.append(np.array(posteriors))
        return step(self, posteriors)

    monkeypatch.setattr(BeamSearch, "step", spy)
    return stepped


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        assert g.tobytes() == w.tobytes()


def worker_beam(toy):
    """The smallest beam width at which a decode of the toy stream forks
    the acoustic-model worker."""
    return -(-engine.WORKER_FRAME_BEAMS // len(toy["features"]))


def count_forks(monkeypatch):
    """Count the multiprocessing contexts decode asks for: one per worker."""
    forks = []
    get_context = multiprocessing.get_context

    def counted(method):
        forks.append(method)
        return get_context(method)

    monkeypatch.setattr(engine.multiprocessing, "get_context", counted)
    return forks


def no_fork(monkeypatch):
    def refuse(*args):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(engine.multiprocessing, "get_context", refuse)


def toy_stream(toy, n):
    """The toy stream repeated to n frames."""
    return np.tile(toy["features"], (-(-n // len(toy["features"])), 1))[:n]


def split_frame_beams(total):
    """(frames, beam width) whose product is total, with at most 200 frames."""
    frames = max(d for d in range(1, 201) if total % d == 0)
    return frames, total // frames


class TestPipeline:
    """The acoustic model runs in the caller below engine.WORKER_FRAME_BEAMS
    frames x beam width, and in a forked worker at or above it; the search
    always runs in the caller."""

    @pytest.mark.parametrize("mode", ["float", "fixed", "hwsim"])
    def test_rows_equal_in_process_frames(self, toy, mode, monkeypatch):
        stepped = spy_rows(monkeypatch)
        cfg = RunConfig(mode=mode, beam_width=16, prune_period=25)
        decode(toy["am"], toy["lm"], toy["arpa"], toy["features"], cfg)
        expected = reference_am_rows(engine._make_am(toy["am"], cfg).datapath, toy["features"])
        assert len(expected) == 80
        assert_rows_equal(stepped, expected)

    @pytest.mark.parametrize("setting", ["float", "fixed", "hwsim", "hwsim-clock-order"])
    def test_both_placements_give_the_same_rows_and_results(self, toy, setting, monkeypatch):
        feats = toy["features"]
        cfg = RunConfig(beam_width=16, prune_period=25, **AM_SETTINGS[setting])
        frame_beams = len(feats) * cfg.beam_width
        expected = reference_am_rows(engine._make_am(toy["am"], cfg).datapath, feats)
        results = []
        for constant, workers in ((frame_beams + 1, []), (frame_beams, ["fork"])):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "WORKER_FRAME_BEAMS", constant)
                forks = count_forks(mp)
                stepped = spy_rows(mp)
                res = decode(toy["am"], toy["lm"], toy["arpa"], feats, cfg)
            assert forks == workers
            assert multiprocessing.active_children() == []
            assert_rows_equal(stepped, expected)
            if cfg.mode == "hwsim":
                rep = res.report
                assert rep["hw.am.cycles.measured"] == rep["am.lstm_cycles.total"] > 0
                assert rep["hw.am.output_tile.measured"] == rep["am.output_tile.total"] > 0
            del res.report["wall.seconds"]
            results.append((res.transcript, res.labels, res.report))
        assert results[0] == results[1]

    @pytest.mark.parametrize("mode", ["float", "fixed", "hwsim"])
    def test_placement_turns_at_the_constant(self, toy, mode, monkeypatch):
        """One frame-beam below the constant starts no process; at it,
        exactly one."""
        frames, beam = split_frame_beams(engine.WORKER_FRAME_BEAMS - 1)
        with pytest.MonkeyPatch.context() as mp:
            no_fork(mp)
            decode(toy["am"], toy["lm"], toy["arpa"], toy_stream(toy, frames),
                   RunConfig(mode=mode, beam_width=beam))

        frames, beam = split_frame_beams(engine.WORKER_FRAME_BEAMS)
        forks = count_forks(monkeypatch)
        decode(toy["am"], toy["lm"], toy["arpa"], toy_stream(toy, frames),
               RunConfig(mode=mode, beam_width=beam))
        assert forks == ["fork"]
        assert multiprocessing.active_children() == []

    def test_in_process_am_exception_propagates_with_its_type(self, toy, monkeypatch):
        def fail():
            raise ValueError("bad frame 7")

        fail_at_frame(monkeypatch, engine._AmRunner, 7, fail)
        no_fork(monkeypatch)
        with pytest.raises(ValueError, match="bad frame 7") as info:
            run(toy, "fixed")
        assert info.value.__cause__ is None

    def test_am_exception_is_reraised_with_its_type(self, toy, monkeypatch):
        def fail():
            raise ValueError("bad frame 7")

        fail_at_frame(monkeypatch, engine._AmRunner, 7, fail)
        with no_hang(), pytest.raises(ValueError, match="bad frame 7") as info:
            run(toy, "fixed", beam=worker_beam(toy))
        assert "in _am_worker" in str(info.value.__cause__)  # the worker's traceback
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_runtime_error(self, toy, monkeypatch):
        caller = os.getpid()

        def die():
            if os.getpid() == caller:  # never end the test process itself
                pytest.fail("the acoustic model ran in the caller")
            os._exit(7)

        fail_at_frame(monkeypatch, engine._AmRunner, 5, die)
        with no_hang(), pytest.raises(RuntimeError, match="exited with code 7"):
            run(toy, "hwsim", beam=worker_beam(toy))
        assert multiprocessing.active_children() == []

    def test_search_exception_leaves_no_worker(self, toy, monkeypatch):
        step = BeamSearch.step

        def boom(self, posteriors):
            if self.frames == 3:
                raise KeyError("search failed")
            return step(self, posteriors)

        monkeypatch.setattr(BeamSearch, "step", boom)
        # long enough that the worker is still sending, blocked on a full pipe
        feats = np.tile(toy["features"], (30, 1))
        cfg = RunConfig(mode="float", beam_width=16)
        assert len(feats) * cfg.beam_width >= engine.WORKER_FRAME_BEAMS
        forks = count_forks(monkeypatch)
        with no_hang(), pytest.raises(KeyError, match="search failed"):
            decode(toy["am"], toy["lm"], toy["arpa"], feats, cfg)
        assert forks == ["fork"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mode", ["fixed", "hwsim"])
    def test_datapath_builds_the_activation_tables_in_the_caller(self, toy, mode):
        """Built once where the datapath is made, so a forked worker shares
        them rather than building its own on every decode."""
        am = ModelContainer.read(toy["paths"]["am"])
        assert all(q._tables is None for q in am.qlayers)
        engine._make_am(am, RunConfig(mode=mode))
        assert all(q._tables is not None for q in am.qlayers)

    @pytest.mark.parametrize("mode", ["float", "fixed", "hwsim"])
    def test_zero_frame_stream_starts_no_worker(self, toy, mode, monkeypatch):
        no_fork(monkeypatch)
        res = decode(toy["am"], toy["lm"], toy["arpa"], np.zeros((0, 12)), RunConfig(mode=mode))
        assert res.transcript == "" and res.report["frames"] == 0


# the acoustic model's datapaths: float steps frame by frame, the others
# take whole blocks; hwsim with fast_mac off runs the clock-order schedule
AM_SETTINGS = {
    "float": dict(mode="float"),
    "fixed": dict(mode="fixed"),
    "hwsim": dict(mode="hwsim"),
    "hwsim-clock-order": dict(mode="hwsim", hw=HwConfig(fast_mac=False)),
}


def check_am_blocks(toy, setting, n, monkeypatch):
    """An n-frame decode: the rows equal the frame-by-frame oracle byte for
    byte, and in hwsim the measured cycles equal the model."""
    feats = toy_stream(toy, n)
    cfg = RunConfig(beam_width=8, **AM_SETTINGS[setting])
    stepped = spy_rows(monkeypatch)
    rep = decode(toy["am"], None, None, feats, cfg).report
    assert_rows_equal(stepped, reference_am_rows(engine._make_am(toy["am"], cfg).datapath, feats))
    if cfg.mode == "hwsim":
        assert rep["am.lstm_cycles.total"] == n * rep["am.lstm_cycles.per_invocation"]
        assert rep["hw.am.cycles.measured"] == rep["am.lstm_cycles.total"]
        assert rep["am.output_tile.total"] == n * rep["am.output_tile.per_invocation"]
        assert rep["hw.am.output_tile.measured"] == rep["am.output_tile.total"]


# stream lengths that end on, before and after the worker's ramp (1 + 2 +
# ... + 16 = 31 frames) and the caller's blocks of engine.CALLER_BLOCK
CALLER_EDGES = (engine.CALLER_BLOCK - 1, engine.CALLER_BLOCK, engine.CALLER_BLOCK + 1,
                2 * engine.CALLER_BLOCK + 1)


class TestAmBlocks:
    """decode steps the acoustic model in blocks: in the caller, blocks of
    engine.CALLER_BLOCK frames from the first frame; in the worker, blocks
    of 1, 2, 4, ... frames up to engine.AM_BLOCK. The decodes here, at beam
    8, step it in the caller."""

    @pytest.mark.parametrize("n", sorted({1, 2, 3, 31, 32, 33, 63, 64, 65, 100, *CALLER_EDGES}))
    @pytest.mark.parametrize("setting", AM_SETTINGS)
    def test_rows_equal_frame_by_frame_oracle(self, toy, setting, n, monkeypatch):
        check_am_blocks(toy, setting, n, monkeypatch)

    @pytest.mark.parametrize("setting", AM_SETTINGS)
    @given(n=st.integers(1, 2 * engine.CALLER_BLOCK + 8))
    def test_any_stream_length(self, toy, setting, n):
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_am_blocks(toy, setting, n, monkeypatch)

    @pytest.mark.parametrize("n", CALLER_EDGES)
    def test_caller_steps_whole_blocks_from_the_first_frame(self, toy, n, monkeypatch):
        sizes = []
        block = engine._AmRunner.block

        def counted(self, feats):
            sizes.append(len(feats))
            return block(self, feats)

        monkeypatch.setattr(engine._AmRunner, "block", counted)
        no_fork(monkeypatch)
        decode(toy["am"], None, None, toy_stream(toy, n), RunConfig(beam_width=8))
        cap = engine.CALLER_BLOCK
        assert sizes == [cap] * (n // cap) + ([n % cap] if n % cap else [])

    @pytest.mark.parametrize("mode, sizes", [
        ("fixed", [1, 2, 4, 8, 16, 16, 16, 16, 16, 5]),
        ("float", [1, 2, 4, 8, 16, 16, 16, 16, 16, 5]),
    ])
    def test_one_message_per_block_and_the_first_is_one_frame(self, toy, mode, sizes):
        class Pipe:
            """Both ends of the worker's pipe, run in this process."""

            def __init__(self):
                self.messages = []

            def send_bytes(self, buf):
                self.messages.append(bytes(buf))

            def send(self, tail):
                self.tail = tail

            def close(self):
                pass

        runner = engine._make_am(toy["am"], RunConfig(mode=mode))
        feats = np.tile(toy["features"], (2, 1))[:100]
        pipe = Pipe()
        engine._am_worker(runner, feats, pipe, pipe)
        row_bytes = 8 * toy["am"].labels
        assert [len(m) // row_bytes for m in pipe.messages] == sizes + [0]
        assert pipe.tail == {"cycles": 0, "output_cycles": 0}


class TestBlasThreads:
    """A decode runs BLAS with one thread, in the caller and in the worker
    it forks, and gives the caller its own count back."""

    @pytest.fixture
    def threads(self):
        calls = engine._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS is not scipy-openblas")
        get, set_ = calls
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_one_thread_inside_the_decode_then_restored(self, toy, threads, monkeypatch):
        seen = []
        step = BeamSearch.step

        def spy(self, posteriors):
            seen.append(threads())
            return step(self, posteriors)

        block = engine._AmRunner.block

        def worker_checked(self, feats):
            if threads() != 1:
                raise AssertionError(f"the worker runs {threads()} BLAS threads")
            return block(self, feats)

        monkeypatch.setattr(BeamSearch, "step", spy)
        monkeypatch.setattr(engine._AmRunner, "block", worker_checked)
        run(toy, "fixed", beam=worker_beam(toy))
        assert set(seen) == {1}
        assert threads() == 2

    def test_restored_when_decode_raises(self, toy, threads, monkeypatch):
        def boom(self, posteriors):
            raise KeyError("search failed")

        monkeypatch.setattr(BeamSearch, "step", boom)
        with no_hang(), pytest.raises(KeyError, match="search failed"):
            run(toy, "fixed")
        assert threads() == 2

    def test_decode_runs_when_the_lookup_fails(self, toy, monkeypatch):
        want = run(toy, "fixed")

        def no_library(path):
            raise OSError(f"cannot load {path}")

        monkeypatch.setattr(engine.ctypes, "CDLL", no_library)
        engine._blas_thread_calls.cache_clear()
        try:
            assert engine._blas_thread_calls() is None
            got = run(toy, "fixed")
        finally:
            engine._blas_thread_calls.cache_clear()
        assert (got.transcript, got.labels) == (want.transcript, want.labels)


@functools.lru_cache(maxsize=1)
def two_layer_lm():
    """A tiny character LM with two layers of different widths."""
    spec = ToySpec("tiny", seed=11)
    spec.lm_hidden = [16, 12]
    return quantize_model(build_toy_models(spec)[1])


class TestCharLm:
    """One character-LM runner over each mode's datapath, its states held in
    the context memory."""

    @pytest.mark.parametrize("mode", engine.MODES)
    @given(batch=st.lists(
        st.tuples(st.lists(st.integers(0, 4), max_size=3), st.integers(0, 4)),
        min_size=1, max_size=8,
    ))
    def test_batch_column_equals_single_advance(self, mode, batch):
        lm = engine._make_char_lm(two_layer_lm(), RunConfig(mode=mode, beam_width=16))
        root, _ = lm.start()
        states = []
        for prefix, _ in batch:
            state = root
            for k in prefix:
                [new], _ = lm.advance_batch([state], [k])
                if state != root:
                    lm.release(state)
                state = new
            states.append(state)
        labels = [k for _, k in batch]

        dp = lm.datapath
        before = (dp.cycles, dp.output_cycles)
        handles, logp = lm.advance_batch(states, labels)
        grown = (dp.cycles - before[0], dp.output_cycles - before[1])
        assert len(handles) == len(labels) and logp.shape == (len(labels), lm.n_labels)
        batched = list(zip(handles, logp))
        singles = []
        for s, k in zip(states, labels):
            [want], [want_logp] = lm.advance_batch([s], [k])
            singles.append((want, want_logp))

        def same(a, b):
            if mode == "float":  # gemm and gemv sum in different orders
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            else:
                assert a.tobytes() == b.tobytes()

        for (got, got_logp), (want, want_logp) in zip(batched, singles):
            for (h, c), (want_h, want_c) in zip(lm.memory.load([got]), lm.memory.load([want])):
                same(h, want_h)
                same(c, want_c)
            same(got_logp, want_logp)
        if mode == "hwsim":
            dims = two_layer_lm().layer_dims
            per_advance = sum(layer_cycles(d, h).total for d, h in zip(dims[:-1], dims[1:]))
            tile = output_tile_cycles(dims[-1], two_layer_lm().labels)
            assert grown == (len(labels) * per_advance, len(labels) * tile)
        else:
            assert grown == (0, 0)

        for state in {root, *states, *(s for s, _ in batched + singles)}:
            lm.release(state)
        assert lm.memory.live == 0

    @pytest.mark.parametrize("mode", engine.MODES)
    def test_root_without_eos_is_the_output_layer_on_the_zero_state(self, mode):
        """An LM whose alphabet has no EOS starts from the zero state, its
        distribution the log-softmax of the output layer on that state,
        computed here from the container's parameters; it counts no advance
        and no cycle."""
        spec = ToySpec("tiny", seed=11)
        spec.alphabet = dataclasses.replace(spec.alphabet, eos=None)
        lmc = quantize_model(build_toy_models(spec)[1])
        lm = engine._make_char_lm(lmc, RunConfig(mode=mode, beam_width=4))
        root, logp = lm.start()
        zero = np.zeros(lmc.layer_dims[-1])
        if mode == "float":
            out = lmc.float_model().output
            z = out.W @ zero + out.b
        else:
            qo = lmc.qoutput
            w_scale = 2.0 ** (qo.w_exp + qo.sig_in.step_exp)
            z = (qo.w_lev @ zero) * w_scale + qo.b_lev * 2.0**qo.b_exp
        z = z - np.max(z)
        want = z - np.log(np.sum(np.exp(z)))
        assert np.ptp(want) > 0.1  # the biases make a distribution that is not flat
        assert logp.shape == want.shape and logp.tobytes() == want.tobytes()
        for h, c in lm.memory.load([root]):
            assert not h.any() and not c.any()
        dp = lm.datapath
        assert (lm.advances, dp.cycles, dp.output_cycles) == (0, 0, 0)
        lm.release([root])
        assert lm.memory.live == 0

    @pytest.mark.parametrize("mode", ["float", "fixed"])
    def test_live_context_slots_stay_within_beam(self, mode, busy_toy, monkeypatch):
        live = []
        step = BeamSearch.step

        def spy(self, posteriors):
            out = step(self, posteriors)
            live.append(self.char_lm.memory.live)
            return out

        monkeypatch.setattr(BeamSearch, "step", spy)
        res = run(busy_toy, mode, beam=4)
        assert res.report["lm.advances"] > 8 * 4
        assert len(live) == 200
        assert max(live) == 4


@functools.lru_cache(maxsize=1)
def small_char_lm():
    """The character LM at the small geometry: 30 labels, two 256-cell
    layers, so its 1,024-row gate products cross both tile bounds."""
    return quantize_model(build_toy_models(ToySpec("small", seed=4))[1])


class TestSmallCharLm:
    """The character LM at H = 256 in each datapath, fixed and hwsim with
    and without fast_mac, over batches of 1 to 40 columns."""

    @pytest.mark.parametrize("mode, fast_mac", [
        ("float", True), ("fixed", True), ("hwsim", True), ("hwsim", False),
    ])
    @given(labels=st.lists(st.integers(0, 29), min_size=1, max_size=40))
    @example(labels=[k % 30 for k in range(40)])
    @example(labels=[7] * 16)
    @example(labels=[(11 * k) % 30 for k in range(15)])
    @example(labels=[29, 0, 13, 4])
    @example(labels=[5, 5, 6])
    def test_label_table_and_batch_match_one_hot_and_single_advances(
        self, mode, fast_mac, labels
    ):
        """The label-table path gives the bytes of the dense one-hot product
        (one_hot_advance) in every state and log-probability, and its cycle
        count. A batched advance gives the states of one-column advances,
        byte for byte in fixed and hwsim, and in float's first layer, whose
        input half is read from the labels' columns and whose recurrent
        half is made one column at a time. float's second layer is close:
        its input side is one product over the B columns, which sums in
        another order than B one-column products. The log-probabilities
        are those of the one-column advances byte for byte in fixed and
        hwsim, whose logits are exact and whose log-softmax reduces each
        column's row alone, and close in float, after its second layer."""
        if not fast_mac and len(labels) > 8 and len(labels) not in TILE_EDGES:
            labels = labels[:8]  # the clock-order schedule is slow; keep the edges
        cfg = RunConfig(mode=mode, beam_width=64, hw=HwConfig(fast_mac=fast_mac))
        lm = engine._make_char_lm(small_char_lm(), cfg)
        root, _ = lm.start()
        B = len(labels)
        states, _ = lm.advance_batch([root] * B, [(7 * b + 3) % 30 for b in range(B)])

        dp = lm.datapath
        counted = [(dp.cycles, dp.output_cycles)]
        handles, logp = lm.advance_batch(states, labels)
        counted.append((dp.cycles, dp.output_cycles))
        want, want_logp = one_hot_advance(lm, states, labels)
        counted.append((dp.cycles, dp.output_cycles))
        # the label path counts the cycles of the one-hot input
        assert np.subtract(counted[1], counted[0]).tolist() == np.subtract(counted[2], counted[1]).tolist()
        got = lm.memory.load(handles)
        for (h, c), (want_h, want_c) in zip(got, want):
            assert (h.tobytes(), c.tobytes()) == (want_h.tobytes(), want_c.tobytes())
        assert logp.tobytes() == want_logp.tobytes()

        def same(a, b, exact=mode != "float"):
            if exact:
                assert a.tobytes() == b.tobytes()
            else:
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

        for b, (state, k) in enumerate(zip(states, labels)):
            [one], [one_logp] = lm.advance_batch([state], [k])
            for li, ((h, c), (one_h, one_c)) in enumerate(zip(got, lm.memory.load([one]))):
                exact = mode != "float" or li == 0
                same(h[:, b], one_h[:, 0], exact)
                same(c[:, b], one_c[:, 0], exact)
            same(logp[b], one_logp)
            lm.release([one])
        lm.release(handles)
        lm.release(states)
        lm.release([root])
        assert lm.memory.live == 0

    @pytest.mark.parametrize("mode", ["fixed", "hwsim"])
    def test_first_layer_reads_the_label_table(self, mode, monkeypatch):
        """No integer-datapath advance computes its first layer's input half
        with a product; the later layer's still does, which shows the
        counter sees the calls."""
        lm = engine._make_char_lm(two_layer_lm(), RunConfig(mode=mode, beam_width=16))
        root, _ = lm.start()
        seen = []
        half_levels = rnn.input_half_levels

        def counted(q, x_lev, *product):
            seen.append(q)
            return half_levels(q, x_lev, *product)

        monkeypatch.setattr(rnn, "input_half_levels", counted)
        for labels in ([1], [0, 2, 4, 1], [k % 5 for k in range(20)]):
            handles, _ = lm.advance_batch([root] * len(labels), labels)
            lm.release(handles)
        second = two_layer_lm().qlayers[1]
        assert len(seen) == 3 and all(q is second for q in seen)


def memo_free_advance(lm, states, labels):
    """An advance from the slots states by labels, every layer stepped by
    the datapath's step on the loaded state with its own recurrent product
    and no memo: every layer's (h, c) and the (B, L) log-probabilities.
    Nothing is stored."""
    dp = lm.datapath
    h, layers = None, []
    for li, (h_prev, c_prev) in enumerate(lm.memory.load(states)):
        h, c = dp.step(li, h, h_prev, c_prev, None if li else labels)
        layers.append((h, c))
    return layers, engine._log_softmax(dp.logit_rows(h))


# an advance from (parent, label) pairs and a release of parents, each
# parent an index into the live handles and each label taken modulo the
# label count
MEMO_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                                               min_size=1, max_size=6)),
        st.tuples(st.just("release"), st.lists(st.integers(0, 63), min_size=1, max_size=4)),
    ),
    min_size=1, max_size=12,
)
# start() primes the root from slot 0 and frees it, so the first advance's
# handle takes slot 0 again; advancing from it needs a fresh product
CHAIN = [("advance", [(0, 1)]), ("advance", [(1, 2)]), ("advance", [(2, 3)])]
# the root's slot freed and handed to a grandchild, which is then advanced
# twice in one batch beside another slot; then two slots freed and one
# handle advanced three times in one batch
REUSE = [("advance", [(0, 1), (0, 2)]), ("release", [0]), ("advance", [(0, 3)]),
         ("advance", [(2, 4), (1, 5), (2, 6)]), ("release", [1, 2]), ("advance", [(0, 7)] * 3)]


class TestLmMemo:
    """RnnCharLm keeps each slot's recurrent products in every mode."""

    @pytest.mark.parametrize("geometry", ["tiny", "small"])
    @pytest.mark.parametrize("mode, fast_mac", [
        ("float", True), ("fixed", True), ("hwsim", True), ("hwsim", False),
    ])
    @given(ops=MEMO_OPS)
    @example(ops=CHAIN)
    @example(ops=REUSE)
    def test_advances_equal_memo_free_steps_as_slots_are_reused(self, geometry, mode, fast_mac,
                                                                ops):
        """Advances and releases interleaved, so that freed slots are handed
        out again: every handle's states and log-probabilities are the
        bytes of a memo-free step from the parent's loaded state."""
        container = two_layer_lm() if geometry == "tiny" else small_char_lm()
        cfg = RunConfig(mode=mode, beam_width=64, hw=HwConfig(fast_mac=fast_mac))
        lm = engine._make_char_lm(container, cfg)
        live = [lm.start()[0]]
        for op, args in ops:
            if op == "release":
                doomed = sorted({i % len(live) for i in args})[: len(live) - 1]
                lm.release([live[i] for i in doomed])
                live = [s for i, s in enumerate(live) if i not in doomed]
                continue
            states = [live[p % len(live)] for p, _ in args]
            labels = [k % lm.n_labels for _, k in args]
            want, want_logp = memo_free_advance(lm, states, labels)
            handles, logp = lm.advance_batch(states, labels)
            for (h, c), (want_h, want_c) in zip(lm.memory.load(handles), want):
                assert (h.tobytes(), c.tobytes()) == (want_h.tobytes(), want_c.tobytes())
            assert logp.tobytes() == want_logp.tobytes()
            live += handles
        lm.release(live)
        assert lm.memory.live == 0

    @staticmethod
    def bounded_memo_report(busy_toy, monkeypatch, mode):
        """The report of a beam-16 decode of the busy stream in mode, after
        checking that the memo never has more rows than the context memory
        and that some advances read it instead of making their products."""
        rows, made = [], []
        path = engine._FloatPath if mode == "float" else engine._FixedPath
        advance, recurrent = engine.RnnCharLm.advance_batch, path.recurrent

        def spy_advance(self, states, labels):
            out = advance(self, states, labels)
            rows.append((*(len(p) for p in self._products), self.memory.rows))
            return out

        def spy_recurrent(self, li, h):
            made.append(h.shape[1])
            return recurrent(self, li, h)

        monkeypatch.setattr(engine.RnnCharLm, "advance_batch", spy_advance)
        monkeypatch.setattr(path, "recurrent", spy_recurrent)
        rep = run(busy_toy, mode, beam=16).report
        assert rows and all(len(set(r)) == 1 for r in rows)  # one row per slot row
        layers = len(busy_toy["lm"].layer_dims) - 1
        assert len(made) % layers == 0
        assert sum(made) // layers - 1 < rep["lm.advances"]  # less the root's priming
        return rep

    def test_memo_stays_bounded_and_cycles_stay_per_column(self, busy_toy, monkeypatch):
        """On the busy stream in hwsim, the memo stays bounded and is read
        (bounded_memo_report), and every column still counts a whole
        advance's cycles."""
        rep = self.bounded_memo_report(busy_toy, monkeypatch, "hwsim")
        lm_dims = busy_toy["lm"].layer_dims
        per_advance = sum(layer_cycles(d, h).total for d, h in zip(lm_dims[:-1], lm_dims[1:]))
        assert rep["hw.lm.cycles.measured"] == rep["lm.advances"] * per_advance

    def test_memo_stays_bounded_in_float(self, busy_toy, monkeypatch):
        """On the busy stream in float too, the memo stays bounded and is
        read (bounded_memo_report)."""
        self.bounded_memo_report(busy_toy, monkeypatch, "float")


@functools.lru_cache(maxsize=1)
def small_am():
    """The acoustic model at the small geometry: 123 inputs, three 256-cell
    layers and 31 labels."""
    return quantize_model(build_toy_models(ToySpec("small", seed=4))[0])


class TestFloatStack:
    """The float datapath steps on stacked gate matrices, the acoustic model
    in blocks, with the bits of the per-gate step run one frame or one
    dense one-hot input at a time (helpers.reference_float_step)."""

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 100])
    def test_am_rows_equal_per_gate_frame_by_frame(self, n, monkeypatch):
        am = small_am()
        feats = np.random.default_rng(n).standard_normal((n, am.input_dim))
        stepped = spy_rows(monkeypatch)
        decode(am, None, None, feats, RunConfig(mode="float", beam_width=8))
        assert_rows_equal(stepped, reference_float_am_rows(am.float_model(), feats))

    @pytest.mark.parametrize("B", range(1, 41))
    def test_lm_advance_equals_per_gate_one_hot(self, B):
        assert TILE_EDGES <= set(range(1, 41))
        lmc = small_char_lm()
        oracle = unstacked_layers(lmc.float_model())
        lm = engine._make_char_lm(lmc, RunConfig(mode="float", beam_width=64))
        root, _ = lm.start()
        states, _ = lm.advance_batch([root] * B, [(7 * b + 3) % 30 for b in range(B)])
        labels = [(11 * b + B) % 30 for b in range(B)]
        handles, logp = lm.advance_batch(states, labels)
        h = np.zeros((lm.n_labels, B))
        h[labels, np.arange(B)] = 1.0
        for p, (h_prev, c_prev), (got_h, got_c) in zip(
            oracle, lm.memory.load(states), lm.memory.load(handles)
        ):
            h, c = reference_float_step(p, h, h_prev, c_prev)
            assert (got_h.tobytes(), got_c.tobytes()) == (h.tobytes(), c.tobytes())
        out = lmc.float_model().output
        z = np.array([out.W @ h[:, j] + out.b for j in range(B)])
        z = z - np.max(z, axis=1, keepdims=True)
        want = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
        assert logp.tobytes() == want.tobytes()

    def test_stacks_are_built_on_first_float_use_and_hold_each_weight_once(self, toy):
        am = ModelContainer.read(toy["paths"]["am"])
        layers = am.float_model().layers
        before = [{n: a.copy() for n, a in p.tensors().items()} for p in layers]
        assert all(p._stacked is None for p in layers)
        engine._make_am(am, RunConfig(mode="float"))
        for p, tensors in zip(layers, before):
            stacks = p.stacked()
            for group, names in rnn.LAYER_GROUPS.items():
                assert stacks[group].dtype == np.float64
                for name in names:
                    view = getattr(p, name)
                    assert view.base is stacks[group]
                    assert view.tobytes() == tensors[name].tobytes()


class TestWordMemo:
    """WordRescorer.delta keeps its results within a decode: the busy
    stream rescores the same (word, history) under several prefixes."""

    @staticmethod
    def counted_rescore(monkeypatch):
        calls = []

        def rescore(model, word, history, **kw):
            calls.append((word, history))
            return wordlm.rescore(model, word, history, **kw)

        monkeypatch.setattr(decoder, "rescore", rescore)
        return calls

    @staticmethod
    def same_result(a, b):
        assert (a.transcript, a.labels) == (b.transcript, b.labels)
        drop = lambda r: {k: v for k, v in r.report.items() if k != "wall.seconds"}
        assert drop(a) == drop(b)

    def test_fewer_rescores_same_result(self, busy_toy, monkeypatch):
        calls = self.counted_rescore(monkeypatch)
        memo = run(busy_toy, "fixed")
        memo_calls = list(calls)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(
                WordRescorer,
                "delta",
                lambda self, w, h: decoder.rescore(self.model, w, h, lam=self.lam, beta=self.beta),
            )
            plain = run(busy_toy, "fixed")
        self.same_result(memo, plain)
        assert len(memo_calls) < len(calls)
        assert sorted(memo_calls) == sorted(set(calls))

    def test_memo_stays_bounded(self, busy_toy, monkeypatch):
        full = run(busy_toy, "fixed")
        sizes = []
        real_delta = WordRescorer.delta

        def delta(self, word, history):
            out = real_delta(self, word, history)
            sizes.append(len(self._memo))
            return out

        monkeypatch.setattr(WordRescorer, "MEMO_SIZE", 8)
        monkeypatch.setattr(WordRescorer, "delta", delta)
        small = run(busy_toy, "fixed")
        self.same_result(full, small)
        # full at 8 entries, then started afresh
        assert max(sizes) == 8 and 1 in sizes[sizes.index(8) :]


class TestReports:
    def test_cycle_totals_sum(self, toy, busy_toy):
        for stream in (toy, busy_toy):
            rep = run(stream, "hwsim").report
            assert rep["cycles.total"] == (
                rep["am.lstm_cycles.total"]
                + rep["am.output_tile.total"]
                + rep["lm.lstm_cycles.total"]
                + rep["lm.output_tile.total"]
            )
            am_per, lm_per = rep["am.lstm_cycles.per_invocation"], rep["lm.lstm_cycles.per_advance"]
            assert rep["am.lstm_cycles.total"] == rep["frames"] * am_per
            assert rep["lm.lstm_cycles.total"] == rep["lm.advances"] * lm_per

    def test_hwsim_measured_matches_model(self, toy, busy_toy):
        for stream in (toy, busy_toy):
            rep = run(stream, "hwsim").report
            assert rep["hw.am.cycles.measured"] == rep["am.lstm_cycles.total"]
            assert rep["hw.am.output_tile.measured"] == rep["am.output_tile.total"]
            assert rep["hw.lm.cycles.measured"] == rep["lm.lstm_cycles.total"]
            assert rep["hw.lm.output_tile.measured"] == rep["lm.output_tile.total"]

    def test_cycle_model_matches_analytic_formulas(self, toy):
        rep = run(toy, "hwsim").report
        dims = toy["am"].layer_dims
        per_frame = sum(layer_cycles(d, h).total for d, h in zip(dims[:-1], dims[1:]))
        assert rep["am.lstm_cycles.per_invocation"] == per_frame
        assert rep["am.output_tile.per_invocation"] == output_tile_cycles(
            dims[-1], toy["am"].labels
        )
        lm_dims = toy["lm"].layer_dims
        lm_per = sum(layer_cycles(d, h).total for d, h in zip(lm_dims[:-1], lm_dims[1:]))
        assert rep["budget.cycles_per_second"] == realtime_budget(100, 3840, per_frame, lm_per)

    def test_memory_totals_sum(self, toy):
        rep = run(toy, "fixed").report
        parts = ["mem.weights.total", "mem.luts", "mem.context", "mem.beam_nodes"]
        assert rep["mem.total"] == sum(rep[k] for k in parts)

    def test_context_memory_bounded_by_beam(self, toy, busy_toy):
        for stream in (toy, busy_toy):
            rep = run(stream, "hwsim", beam=8).report
            assert rep["hw.context.peak_slots"] <= 8 + rep["beam.width"]
            assert rep["beam.mean_active"] <= 8

    def test_context_peak_slots_unchanged(self, busy_toy):
        """The context memory hands out and frees as many slots as the
        slot-list memory it replaced: these peaks are that memory's."""
        peaks = {beam: run(busy_toy, "hwsim", beam=beam).report["hw.context.peak_slots"]
                 for beam in (8, 16)}
        assert peaks == {8: 10, 16: 19}

    def test_report_round_trip_lossless(self, toy, tmp_path):
        rep = run(toy, "hwsim").report
        p = tmp_path / "report.txt"
        write_report(rep, p)
        back = read_report(p)
        assert back == {k: (float(v) if isinstance(v, float) else v) for k, v in rep.items()}

    def test_report_stream_io(self):
        buf = io.StringIO()
        write_report({"a.b": 3, "c": 2.5, "mode": "fixed"}, buf)
        back = read_report(io.StringIO(buf.getvalue()))
        assert back == {"a.b": 3, "c": 2.5, "mode": "fixed"}


class TestDesignPointReport:
    def test_small_model_100_frames_report(self, tmp_path):
        # 100 frames through the full geometry: 100 x 2,806 AM cycles,
        # and the budget line reproduces 6,409,240 at 100 Hz / 3,840 LM ops
        paths = gen_toy(ToySpec("small", frames=100, seed=13), tmp_path, include_float=False)
        am = ModelContainer.read(paths["am"])
        lm = ModelContainer.read(paths["lm"])
        feats = read_feature_file(paths["features"])[0]
        cfg = RunConfig(mode="hwsim", beam_width=16, prune_period=50)
        rep = decode(am, lm, None, feats, cfg).report
        assert rep["am.lstm_cycles.per_invocation"] == 2806
        assert rep["am.lstm_cycles.total"] == 280600
        assert rep["hw.am.cycles.measured"] == 280600
        assert rep["lm.lstm_cycles.per_advance"] == 1596
        assert rep["budget.cycles_per_second"] == 6409240


class TestCli:
    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        import qasr.cli as cli

        toy_dir = tmp_path / "toy"
        main_quantize(["--gen-toy", "tiny,frames=5,seed=2", "--out-dir", str(toy_dir)])
        capsys.readouterr()

        def boom(*a, **kw):
            raise RuntimeError("datapath desync")

        monkeypatch.setattr(cli, "decode", boom)
        rc = main_decode(
            ["--am", str(toy_dir / "am.qnn"), "--features", str(toy_dir / "stream.feat")]
        )
        assert rc == 3
        assert "internal" in capsys.readouterr().err

    def test_quantize_gen_toy_and_decode(self, tmp_path, capsys):
        toy_dir = tmp_path / "toy"
        assert main_quantize(["--gen-toy", "tiny,frames=40,seed=3", "--out-dir", str(toy_dir)]) == 0
        capsys.readouterr()
        report_path = tmp_path / "rep.txt"
        rc = main_decode(
            [
                "--am", str(toy_dir / "am.qnn"),
                "--lm", str(toy_dir / "lm.qnn"),
                "--arpa", str(toy_dir / "toy.arpa"),
                "--features", str(toy_dir / "stream.feat"),
                "--mode", "hwsim",
                "--beam", "8",
                "--report", str(report_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        rep = read_report(report_path)
        assert rep["frames"] == 40
        assert out.rstrip("\n") == out.strip("\n")  # transcript printed once

    def test_decode_gen_toy_shortcut(self, tmp_path, capsys):
        rc = main_decode(
            ["--gen-toy", "tiny,frames=20,seed=4", "--toy-dir", str(tmp_path / "t"), "--beam", "4"]
        )
        assert rc == 0
        capsys.readouterr()

    def test_quantize_float_model_path(self, tmp_path, capsys):
        toy_dir = tmp_path / "toy"
        main_quantize(["--gen-toy", "tiny,frames=10,seed=5", "--out-dir", str(toy_dir)])
        capsys.readouterr()
        out = tmp_path / "requant.qnn"
        rc = main_quantize(
            ["--float-model", str(toy_dir / "am_float.npz"), "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        c = ModelContainer.read(out)
        ref = ModelContainer.read(toy_dir / "am.qnn")
        np.testing.assert_array_equal(c.qlayers[0].wx_lev, ref.qlayers[0].wx_lev)

    def test_missing_input_exits_2(self, capsys):
        rc = main_decode(["--am", "/nonexistent.qnn", "--features", "/nonexistent.feat"])
        assert rc == 2
        assert "asr-decode" in capsys.readouterr().err

    def test_bad_feature_file_exits_2(self, tmp_path, capsys):
        toy_dir = tmp_path / "toy"
        main_quantize(["--gen-toy", "tiny,frames=10,seed=6", "--out-dir", str(toy_dir)])
        capsys.readouterr()
        bad = tmp_path / "bad.feat"
        bad.write_bytes(b"not a feature file")
        rc = main_decode(["--am", str(toy_dir / "am.qnn"), "--features", str(bad)])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("mode", ["float", "fixed", "hwsim"])
    def test_non_finite_feature_exits_2_naming_frame_and_dim(self, mode, tmp_path, capsys):
        toy_dir = tmp_path / "toy"
        paths = gen_toy("tiny,frames=6,seed=10", toy_dir)
        feats = read_feature_file(paths["features"])[0].copy()
        feats[4, 7] = np.nan
        bad = tmp_path / "nan.feat"
        write_feature_file(bad, feats)
        capsys.readouterr()
        rc = main_decode(["--am", paths["am"], "--lm", paths["lm"], "--features", str(bad),
                          "--mode", mode, "--beam", "4"])
        assert rc == 2
        assert "frame 4, dimension 7" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, named", [
        ("--beam", "0", "beam width"),
        ("--alpha", "-1", "alpha"),
        ("--lambda", "-1", "lambda"),
        ("--prune-period", "-7", "prune period"),
        ("--alpha", "nan", "alpha"),
        ("--alpha", "inf", "alpha"),
        ("--lambda", "nan", "lambda"),
        ("--lambda", "inf", "lambda"),
        ("--beta", "nan", "beta"),
        ("--beta", "inf", "beta"),
    ])
    def test_bad_setting_exits_2_naming_it(self, flag, value, named, tmp_path, capsys):
        paths = gen_toy("tiny,frames=6,seed=12", tmp_path / "toy")
        capsys.readouterr()
        rc = main_decode(["--am", paths["am"], "--lm", paths["lm"], "--arpa", paths["arpa"],
                          "--features", paths["features"], flag, value])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_bad_setting_exits_2_before_any_load(self, capsys):
        rc = main_decode(["--beam", "0", "--am", "/nonexistent.qnn",
                          "--features", "/nonexistent.feat"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "beam width" in err and "nonexistent" not in err

    def test_container_missing_header_key_exits_2(self, tmp_path, capsys):
        paths = gen_toy("tiny,frames=6,seed=11", tmp_path / "toy")
        bad = tmp_path / "bad.qnn"
        rewrite_header(Path(paths["am"]), bad, lambda h: h.pop("formats"))
        capsys.readouterr()
        rc = main_decode(["--am", str(bad), "--features", paths["features"]])
        assert rc == 2
        assert "missing key 'formats'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda h: h.update(kind="zz"), "kind 'zz' is not 'am' or 'lm'"),
        (lambda h: h["alphabet"].update(symbols=5), "alphabet.symbols 5 is not a list of strings"),
        (lambda h: h["alphabet"].update(delimiter="3"),
         "alphabet.delimiter '3' is not an index or null"),
        (lambda h: h["alphabet"].update(eos=True), "alphabet.eos True is not an index or null"),
        (lambda h: h["alphabet"].update(eos=-1), "alphabet.eos index out of range"),
    ])
    def test_container_bad_kind_or_alphabet_exits_2_naming_the_key(self, tmp_path, capsys,
                                                                   edit, named):
        paths = gen_toy("tiny,frames=6,seed=11", tmp_path / "toy")
        bad = tmp_path / "bad.qnn"
        rewrite_header(Path(paths["am"]), bad, edit)
        capsys.readouterr()
        rc = main_decode(["--am", str(bad), "--features", paths["features"]])
        assert rc == 2
        assert f"{bad}: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, named", [
        ("act_exp", 3, "is not an integer in -1074..-1"),
        ("pre_exp", 40, "makes one pre-activation step span the lut_lo..lut_hi table range"),
        ("sig_exp", "x", "is not an integer in -1074..1023"),
        ("cell_exp", 2.5, "is not an integer in -1074..1023"),
        ("signal_bits", 1, "is not an integer in 2..53"),
        ("lut_resolution", 1000, "is not a power of two"),
        ("lut_lo", 9.0, "is not below formats.lut_hi 8.0"),
    ])
    def test_container_bad_formats_exit_2_naming_the_key(self, tmp_path, capsys,
                                                          key, value, named):
        paths = gen_toy("tiny,frames=6,seed=3", tmp_path / "toy")
        bad = tmp_path / "bad.qnn"
        rewrite_header(Path(paths["am"]), bad, lambda h: h["formats"].update({key: value}))
        capsys.readouterr()
        rc = main_decode(["--am", str(bad), "--features", paths["features"]])
        assert rc == 2
        assert f"asr-decode: {bad}: formats.{key} {value!r} {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("am, lm, named", [
        ("lm", None, "the acoustic model is given an 'lm' container"),
        ("am", "am", "the character LM is given an 'am' container"),
    ])
    def test_container_of_the_other_kind_exits_2_naming_the_role(self, tmp_path, capsys,
                                                                 am, lm, named):
        paths = gen_toy("tiny,frames=6,seed=3", tmp_path / "toy")
        argv = ["--am", paths[am], "--features", paths["features"]]
        capsys.readouterr()
        rc = main_decode(argv + (["--lm", paths[lm]] if lm else []))
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_container_bits_unlike_its_formats_exit_2_naming_the_tensor(self, tmp_path, capsys):
        paths = gen_toy("tiny,frames=6,seed=11", tmp_path / "toy")
        am = ModelContainer.read(paths["am"])
        wide = quantize_model(am.float_model(), weight_bits=12)
        wide.write(tmp_path / "wide.qnn")
        bad = tmp_path / "bad.qnn"
        rewrite_header(tmp_path / "wide.qnn", bad, lambda h: h["formats"].update(weight_bits=6))
        capsys.readouterr()
        rc = main_decode(["--am", str(bad), "--features", paths["features"]])
        assert rc == 2
        assert "tensor layer0.W_xi holds 12-bit levels" in capsys.readouterr().err

    def test_wav_input_path(self, tmp_path, capsys):
        from scipy.io import wavfile

        toy_dir = tmp_path / "toy"
        paths = gen_toy(ToySpec("small", frames=5, seed=7), toy_dir)
        rng = np.random.default_rng(8)
        pcm = (rng.uniform(-0.2, 0.2, size=8000) * 32768).astype(np.int16)
        wav = tmp_path / "x.wav"
        wavfile.write(wav, 16000, pcm)
        rc = main_decode(
            ["--am", paths["am"], "--wav", str(wav), "--mode", "fixed", "--beam", "4"]
        )
        assert rc == 0
        capsys.readouterr()


def test_toy_arpa_parses_and_scores(toy):
    model = toy["arpa"]
    assert model.order == 3
    assert "A" in model.vocab or "ABC" in "".join(model.vocab)


def test_gen_toy_is_deterministic(tmp_path):
    a = gen_toy("tiny,frames=15,seed=11", tmp_path / "a")
    b = gen_toy("tiny,frames=15,seed=11", tmp_path / "b")
    fa = read_feature_file(a["features"])[0]
    fb = read_feature_file(b["features"])[0]
    np.testing.assert_array_equal(fa, fb)
    ca = (tmp_path / "a" / "am.qnn").read_bytes()
    cb = (tmp_path / "b" / "am.qnn").read_bytes()
    assert ca == cb
