"""Hardware model tests: cycle fixtures pinned to the design-point arithmetic,
bit-exact equivalence against the reference fixed datapath, and the memory
layout arithmetic."""

import numpy as np
import pytest

from qasr.hwsim import (
    ContextMemory,
    HwConfig,
    layer_cycles,
    memory_footprint,
    network_cycles,
    output_tile_cycles,
    realtime_budget,
    simulate_layer,
    simulate_output_tile,
)
from qasr.rnn import LstmState, elementwise_update, fixed_step_levels, zero_state

from helpers import (
    make_layer,
    make_output,
    quantize_model,
    reference_elementwise_update,
    reference_fixed_step_levels,
    zero_layer,
)


class TestCycleFixtures:
    def test_first_am_layer(self):
        lc = layer_cycles(123, 256)
        assert lc.input_path == 246
        assert lc.recurrent_path == 512
        assert lc.total == 758

    def test_square_layer(self):
        lc = layer_cycles(256, 256)
        assert lc.input_path == 512
        assert lc.total == 1024

    def test_lm_first_layer(self):
        lc = layer_cycles(30, 256)
        assert lc.input_path == 60
        assert lc.total == 572

    def test_am_network(self):
        rep = network_cycles([123, 256, 256, 256], name="am")
        assert [lc.total for lc in rep.layers] == [758, 1024, 1024]
        assert rep.total == 2806

    def test_lm_network(self):
        rep = network_cycles([30, 256, 256], name="lm")
        assert rep.total == 1596

    def test_zero_input_dim_edge(self):
        lc = layer_cycles(0, 256)
        assert lc.input_path == 0
        assert lc.total == 512

    def test_realtime_budget(self):
        am = network_cycles([123, 256, 256, 256])
        lm = network_cycles([30, 256, 256])
        assert realtime_budget(100, 3840, am, lm) == 6409240
        assert realtime_budget(0, 0, am, lm) == 0
        # 30 transitions/s across 128 beams is the assumed LM duty
        assert realtime_budget(100, 30 * 128, am, lm) == 6409240

    def test_budget_rejects_negative(self):
        with pytest.raises(ValueError):
            realtime_budget(-1, 0, 2806, 1596)

    def test_scaling_law(self):
        for arrays in (1, 2, 4, 8):
            cfg = HwConfig(pe_arrays=arrays, pes_per_array=256)
            lc = layer_cycles(123, 256, cfg)
            passes = -(-4 // arrays)
            assert lc.input_path == passes * 123
            assert lc.recurrent_path == passes * 256

    def test_tiling_above_array_width(self):
        lc = layer_cycles(512, 512)
        assert lc.input_path == 2 * 512 * 2
        assert lc.recurrent_path == 2 * 512 * 2

    def test_report_sums(self):
        rep = network_cycles([123, 256, 256, 256], labels=31, name="am")
        lines = dict(rep.to_lines())
        assert lines["am.cycles"] == sum(
            lines[f"am.layer{i}.cycles"] for i in range(3)
        ) + lines["am.sync_overhead"]
        assert lines["am.output_tile.cycles"] == output_tile_cycles(256, 31)

    def test_sync_overhead_configurable(self):
        cfg = HwConfig(sync_overhead=7)
        rep = network_cycles([123, 256, 256, 256], cfg)
        assert rep.total == 2806 + 7


class TestBitExactness:
    @pytest.mark.parametrize("fast", [True, False])
    def test_matches_reference_fixed_path(self, fast):
        rng = np.random.default_rng(20)
        for trial in range(10):
            d = int(rng.integers(3, 14))
            h = int(rng.integers(4, 24))
            layer = make_layer(d, h, rng)
            quantize_model([layer], None)
            q = layer.quantized
            cfg = HwConfig(fast_mac=fast)
            st_ref = zero_state(h)
            st_hw = zero_state(h)
            for _ in range(4):
                x = rng.uniform(-1, 1, size=d)
                x_lev = np.round(x / q.fmt.sig_in.step)
                ref_h, ref_c = fixed_step_levels(q, x_lev, st_ref.h, st_ref.c)
                st_ref = LstmState(h=ref_h, c=ref_c)
                hw_h, st_hw, _ = simulate_layer(q, x_lev, st_hw, cfg)
                np.testing.assert_array_equal(hw_h, ref_h)
                np.testing.assert_array_equal(st_hw.c, ref_c)

    def test_column_loop_equals_fast_mac(self):
        rng = np.random.default_rng(21)
        layer = make_layer(9, 17, rng)
        quantize_model([layer], None)
        q = layer.quantized
        x_lev = np.round(rng.uniform(-1, 1, size=9) / q.fmt.sig_in.step)
        h_fast, _, _ = simulate_layer(q, x_lev, zero_state(17), HwConfig(fast_mac=True))
        h_slow, _, _ = simulate_layer(q, x_lev, zero_state(17), HwConfig(fast_mac=False))
        np.testing.assert_array_equal(h_fast, h_slow)

    def test_batched_equals_single(self):
        rng = np.random.default_rng(22)
        layer = make_layer(6, 11, rng)
        quantize_model([layer], None)
        q = layer.quantized
        xs = np.round(rng.uniform(-1, 1, size=(6, 5)) / q.fmt.sig_in.step)
        hb, stb, _ = simulate_layer(q, xs, zero_state(11, batch=5))
        for b in range(5):
            h1, st1, _ = simulate_layer(q, xs[:, b], zero_state(11))
            np.testing.assert_array_equal(hb[:, b], h1)
            np.testing.assert_array_equal(stb.c[:, b], st1.c)

    def test_output_tile_matches_reference(self):
        rng = np.random.default_rng(23)
        layer = make_layer(5, 8, rng)
        out = make_output(8, 4, rng)
        quantize_model([layer], out)
        qo = out.quantized
        h_lev = np.round(rng.uniform(-1, 1, size=8) / qo.sig_in.step)
        for fast in (True, False):  # the clock-order tiles must add up to the logits
            cfg = HwConfig(pes_per_array=3, fast_mac=fast)
            logits_hw, cycles = simulate_output_tile(qo, h_lev, cfg)
            np.testing.assert_array_equal(logits_hw, qo.logits(h_lev))
            assert cycles == output_tile_cycles(8, 4, cfg)

    def test_zero_weight_layer_closed_form(self):
        from helpers import zero_layer

        layer = zero_layer(3, 2)
        quantize_model([layer], None)
        st = LstmState(h=np.zeros(2), c=np.array([256.0, 0.0]))
        h, st2, _ = simulate_layer(layer.quantized, np.zeros(3), st)
        assert st2.c[0] * layer.quantized.fmt.cell.step == 0.5
        assert h[1] == 0.0

    def test_am_100_frames_cycle_total(self):
        rng = np.random.default_rng(24)
        # geometry is what matters for cycles; use thin layers for speed
        layers = [make_layer(123, 8, rng), make_layer(8, 8, rng), make_layer(8, 8, rng)]
        quantize_model(layers, None)
        cfg = HwConfig()
        total = 0
        states = [zero_state(8) for _ in layers]
        dims = [(123, 256), (256, 256), (256, 256)]
        for _ in range(100):
            for (d, h) in dims:
                total += layer_cycles(d, h, cfg).total
        assert total == 280600


class TestReferenceOracle:
    """fixed and hwsim share one element-wise update; both are checked
    against the gate-by-gate reference in helpers."""

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("fast", [True, False])
    def test_datapaths_match_gate_by_gate_reference(self, fast, batch):
        rng = np.random.default_rng(30)
        for _ in range(12):
            d = int(rng.integers(1, 14))
            h = int(rng.integers(1, 20))
            layer = make_layer(d, h, rng)
            quantize_model(
                [layer],
                None,
                sig_in_exp=int(rng.integers(-8, -2)),
                sig_out_exp=int(rng.integers(-8, -4)),
                cell_exp=int(rng.integers(-10, -5)),
                pre_exp=int(rng.integers(-10, -5)),
                act_exp=int(rng.integers(-8, -5)),
            )
            q = layer.quantized
            cfg = HwConfig(pes_per_array=int(rng.integers(1, 9)), fast_mac=fast)
            cols = () if batch is None else (batch,)
            h_lev = rng.integers(-q.fmt.sig_out.max_level, q.fmt.sig_out.max_level + 1,
                                 size=(h,) + cols).astype(float)
            c_lev = rng.integers(-4096, 4097, size=(h,) + cols).astype(float)
            for _ in range(3):
                x_lev = rng.integers(-q.fmt.sig_in.max_level, q.fmt.sig_in.max_level + 1,
                                     size=(d,) + cols).astype(float)
                ref_h, ref_c = reference_fixed_step_levels(q, x_lev, h_lev, c_lev)
                fx_h, fx_c = fixed_step_levels(q, x_lev, h_lev, c_lev)
                hw_h, hw_st, _ = simulate_layer(q, x_lev, LstmState(h=h_lev, c=c_lev), cfg)
                for got in (fx_h, hw_h):
                    np.testing.assert_array_equal(got, ref_h)
                for got in (fx_c, hw_st.c):
                    np.testing.assert_array_equal(got, ref_c)
                h_lev, c_lev = ref_h, ref_c

    @pytest.mark.parametrize("batch", [None, 3])
    def test_pre_activation_ties_round_away_from_zero(self, batch):
        # zero peepholes, so every pre-activation sits exactly half-way
        # between two levels
        rng = np.random.default_rng(32)
        h = 64
        layer = zero_layer(4, h)
        quantize_model([layer], None)
        q = layer.quantized
        cols = () if batch is None else (batch,)
        e_pre = q.fmt.pre.step_exp
        ties = rng.integers(-2100, 2100, size=(4 * h,) + cols) + 0.5
        scale = np.repeat([2.0 ** (e_pre - e) for e in q.gate_acc_exp], h)
        acc = ties * (scale[:, None] if batch else scale)
        c_lev = rng.integers(-4096, 4097, size=(h,) + cols).astype(float)
        got_h, got_c = elementwise_update(q, acc, c_lev)
        ref_h, ref_c = reference_elementwise_update(q, acc, c_lev)
        np.testing.assert_array_equal(got_h, ref_h)
        np.testing.assert_array_equal(got_c, ref_c)

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("fast", [True, False])
    def test_float64_fallback_matches_reference(self, fast, batch):
        # 12-bit weights over 512 inputs: the x-side bound 2047*127*512 is
        # above 2^24, so the levels stay float64
        rng = np.random.default_rng(31)
        d, h = 512, 40
        layer = make_layer(d, h, rng)
        quantize_model([layer], None, weight_bits=12)
        q = layer.quantized
        assert q.wx_lev.dtype == np.float64 and q.wh_lev.dtype == np.float64
        cfg = HwConfig(pes_per_array=16, fast_mac=fast)
        cols = () if batch is None else (batch,)
        m_in, m_out = q.fmt.sig_in.max_level, q.fmt.sig_out.max_level
        h_lev = rng.integers(-m_out, m_out + 1, size=(h,) + cols).astype(float)
        c_lev = rng.integers(-4096, 4097, size=(h,) + cols).astype(float)
        # the first frame drives row 0 of the x side past 2^24
        first = m_in * np.sign(q.wx_lev[0])
        frames = [first[:, None].repeat(batch, 1) if batch else first]
        frames += [rng.integers(-m_in, m_in + 1, size=(d,) + cols).astype(float)
                   for _ in range(2)]
        assert np.abs(q.wx_lev @ frames[0]).max() >= 2**24
        for x_lev in frames:
            ref_h, ref_c = reference_fixed_step_levels(q, x_lev, h_lev, c_lev)
            fx_h, fx_c = fixed_step_levels(q, x_lev, h_lev, c_lev)
            hw_h, hw_st, _ = simulate_layer(q, x_lev, LstmState(h=h_lev, c=c_lev), cfg)
            for got in (fx_h, hw_h):
                np.testing.assert_array_equal(got, ref_h)
            for got in (fx_c, hw_st.c):
                np.testing.assert_array_equal(got, ref_c)
            h_lev, c_lev = ref_h, ref_c


class TestContextMemory:
    def test_round_trip_lossless(self):
        mem = ContextMemory(capacity=4)
        rng = np.random.default_rng(25)
        layers = [(rng.integers(-127, 128, (16, 3)).astype(float),
                   rng.integers(-32767, 32768, (16, 3)).astype(float)) for _ in range(2)]
        slots = mem.store(layers)
        assert len(set(slots)) == 3 and mem.live == 3
        for cols in ([0, 1, 2], [2, 0, 0]):
            loaded = mem.load([slots[b] for b in cols])
            assert len(loaded) == 2
            for (h, c), (want_h, want_c) in zip(loaded, layers):
                np.testing.assert_array_equal(h, want_h[:, cols])
                np.testing.assert_array_equal(c, want_c[:, cols])

    def test_release_and_capacity(self):
        mem = ContextMemory(capacity=2)
        zeros = [(np.zeros((2, 1)), np.zeros((2, 1)))]
        [a] = mem.store(zeros)
        [b] = mem.store(zeros)
        mem.check_capacity()
        [c] = mem.store(zeros)
        with pytest.raises(RuntimeError):
            mem.check_capacity()
        mem.release(a)
        mem.check_capacity()
        assert mem.live == 2
        assert mem.peak_live == 3
        assert mem.store(zeros) == [a]  # a freed slot is reused
        assert mem.peak_live == 3

    def test_release_of_a_slot_that_is_not_live_raises(self):
        mem = ContextMemory(capacity=2)
        a, b = mem.store([(np.zeros((2, 2)), np.zeros((2, 2)))])
        mem.release(a)
        for slot in (a, -1, 2):
            with pytest.raises(KeyError):
                mem.release(slot)
        with pytest.raises(KeyError):
            mem.load([b, a])
        assert mem.live == 1
        assert mem.store([(np.ones((2, 2)), np.ones((2, 2)))]) == [a, 2]  # a is handed out once


class TestMemoryFootprint:
    def test_context_formula(self):
        rng = np.random.default_rng(26)
        lm = [make_layer(30, 256, rng), make_layer(256, 256, rng)]
        quantize_model(lm, None)
        rep = memory_footprint([], [l.quantized for l in lm], beam_width=128)
        assert rep["mem.context"] == 128 * 2 * 512 * 2

    def test_fifteen_param_layer_rounds_up(self):
        from helpers import zero_layer

        layer = zero_layer(1, 1)
        quantize_model([layer], None)
        rep = memory_footprint([layer.quantized], [], beam_width=1)
        assert rep["mem.weights.am"] == 12  # ceil(15 * 6 / 8)

    def test_total_is_sum_of_parts(self):
        rng = np.random.default_rng(27)
        am = [make_layer(12, 16, rng)]
        lm = [make_layer(5, 16, rng)]
        quantize_model(am, None)
        quantize_model(lm, None)
        rep = memory_footprint([am[0].quantized], [lm[0].quantized], beam_width=8)
        parts = ["mem.weights.total", "mem.luts", "mem.context", "mem.beam_nodes"]
        assert rep["mem.total"] == sum(rep[k] for k in parts)
        assert rep["mem.weights.total"] == rep["mem.weights.am"] + rep["mem.weights.lm"]
