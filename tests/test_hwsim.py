"""Hardware model tests: cycle fixtures pinned to the design-point arithmetic,
bit-exact equivalence against the reference fixed datapath, and the memory
layout arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasr import engine, hwsim
from qasr.container import ModelContainer
from qasr.decoder import Alphabet
from qasr.hwsim import (
    ContextMemory,
    HwConfig,
    clock_order_product,
    layer_cycles,
    memory_footprint,
    network_cycles,
    output_tile_cycles,
    realtime_budget,
    simulate_layer,
    simulate_layer_block,
    simulate_output_tile,
)
from qasr.rnn import (
    LAYER_GROUPS,
    LstmState,
    QuantizedLstmLayer,
    QuantizedOutputLayer,
    elementwise_update,
    fixed_block_levels,
    fixed_step_levels,
    input_half_levels,
    layer_formats,
    layer_shapes,
    zero_state,
)

from helpers import (
    fixed_table,
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
        rep = network_cycles([123, 256, 256, 256])
        assert [lc.total for lc in rep.layers] == [758, 1024, 1024]
        assert rep.total == 2806

    def test_lm_network(self):
        rep = network_cycles([30, 256, 256])
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
        rep = network_cycles([123, 256, 256, 256], labels=31)
        assert rep.total == sum(lc.total for lc in rep.layers) == 2806
        assert rep.output_tile == output_tile_cycles(256, 31)
        assert network_cycles([123, 256, 256, 256]).output_tile is None


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


class TestClockOrderProduct:
    """The PE schedule is a product order: it sums w @ x's integer terms
    tile by tile and column by column, and fast_mac picks it or not."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_blas_product(self, dtype):
        rng = np.random.default_rng(40)
        for _ in range(30):
            gates = int(rng.choice([1, 4]))
            height = int(rng.integers(1, 12))
            d = int(rng.integers(1, 10))
            w = rng.integers(-31, 32, size=(gates * height, d)).astype(dtype)
            for P in {1, max(1, height - 1), height, height + 3}:
                for cols in ((), (int(rng.integers(1, 6)),)):
                    x = rng.integers(-127, 128, size=(d,) + cols).astype(dtype)
                    got, want = clock_order_product(w, x, P, gates), w @ x
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()

    def test_tiles_stay_inside_one_gate(self, monkeypatch):
        """The tiles clock_order_product sums over cover every row once,
        none crosses a gate edge, and each gate has the tiles layer_cycles
        counts (with four arrays one pass covers the four gates); an
        output tile has those output_tile_cycles counts."""
        used = []
        tiles_of = hwsim._tiles

        def recorded(*args):
            used.append(tiles_of(*args))
            return used[-1]

        monkeypatch.setattr(hwsim, "_tiles", recorded)
        for height in (1, 5, 8, 17):
            for P in (1, 3, 8, 20):
                used.clear()
                clock_order_product(np.ones((4 * height, 2)), np.ones(2), P, 4)
                clock_order_product(np.ones((height, 6)), np.ones(6), P)
                gate_tiles, output_tiles = used
                rows = [r for t in gate_tiles for r in range(4 * height)[t]]
                assert rows == list(range(4 * height))
                assert all(t.start // height == (t.stop - 1) // height for t in gate_tiles)
                cfg = HwConfig(pe_arrays=4, pes_per_array=P)
                assert len(gate_tiles) == 4 * layer_cycles(1, height, cfg).input_path
                assert len(output_tiles) * 6 == output_tile_cycles(6, height, cfg)

    @pytest.mark.parametrize("fast", [True, False])
    def test_fast_mac_picks_the_product(self, fast, monkeypatch):
        """With fast_mac off each simulate call runs its products through
        clock_order_product; with fast_mac on none does."""
        calls = []

        def counted(*args, **kw):
            calls.append(kw["gates"])
            return clock_order_product(*args, **kw)

        monkeypatch.setattr(hwsim, "clock_order_product", counted)
        rng = np.random.default_rng(41)
        layer, out = make_layer(5, 6, rng), make_output(6, 4, rng)
        quantize_model([layer], out)
        q, cfg = layer.quantized, HwConfig(pes_per_array=4, fast_mac=fast)
        x = rng.integers(-9, 10, size=(5, 3)).astype(float)
        h = rng.integers(-9, 10, size=6).astype(float)
        runs = [  # each call and the gates of its products in call order
            (lambda: simulate_layer(q, x[:, 0], zero_state(6), cfg), [4, 4]),
            (lambda: simulate_layer_block(q, x, zero_state(6), cfg), [4] * 4),
            (lambda: simulate_output_tile(out.quantized, h, cfg), [1]),
        ]
        for run, gates in runs:
            calls.clear()
            run()
            assert calls == ([] if fast else gates)


def check_block_against_reference(q, x_block, h_lev, c_lev, cfg):
    """Over the k columns of x_block, one stream's consecutive inputs:
    - the input half over all k columns plus each step's recurrent half
      (the h-side product times wh_half), through the element-wise update,
      equals the gate-by-gate reference stepped column by column;
    - fixed_step_levels stepped column by column, fixed_block_levels and
      simulate_layer_block give the same bytes, and the block's cycles are
      k layer steps."""
    k = x_block.shape[1]
    x2 = input_half_levels(q, x_block)
    assert x2.shape == (4 * q.hidden, k)
    ref_h, ref_c = h_lev, c_lev
    fx_h, fx_c = h_lev, c_lev
    stepped = []
    for t in range(k):
        ah = q.wh_lev @ np.asarray(ref_h, dtype=q.wh_lev.dtype)
        half_h, half_c = elementwise_update(q, x2[:, t] + ah * q.wh_half, ref_c)
        ref_h, ref_c = reference_fixed_step_levels(q, x_block[:, t], ref_h, ref_c)
        np.testing.assert_array_equal(half_h, ref_h)
        np.testing.assert_array_equal(half_c, ref_c)
        fx_h, fx_c = fixed_step_levels(q, x_block[:, t], fx_h, fx_c)
        np.testing.assert_array_equal(fx_h, ref_h)
        stepped.append(fx_h)
    stepped = np.stack(stepped, axis=1)
    blk_h, blk_c = fixed_block_levels(q, x_block, h_lev, c_lev)
    hw_h, hw_st, cycles = simulate_layer_block(q, x_block, LstmState(h=h_lev, c=c_lev), cfg)
    for got_h, got_c in ((blk_h, blk_c), (hw_h, hw_st.c)):
        assert got_h.tobytes() == stepped.tobytes()
        assert got_c.tobytes() == fx_c.tobytes()
    assert hw_st.h.tobytes() == fx_h.tobytes()
    assert cycles == k * layer_cycles(q.input_dim, q.hidden, cfg).total


class TestReferenceOracle:
    """fixed and hwsim share one element-wise update; both are checked
    against the gate-by-gate reference in helpers, one step at a time and
    over blocks of consecutive steps (the input half of the accumulators
    over the block, the recurrent half step by step)."""

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
                sig_exp=int(rng.integers(-8, -4)),
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
        # the same ties at half-levels, twice the pre-activation scale
        half = np.repeat([2.0 ** (e - e_pre + 1) for e in q.gate_acc_exp], h)
        x2 = acc * (half[:, None] if batch else half)
        c_lev = rng.integers(-4096, 4097, size=(h,) + cols).astype(float)
        got_h, got_c = elementwise_update(q, x2, c_lev)
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

    @pytest.mark.parametrize("fast", [True, False])
    def test_block_halves_match_reference(self, fast):
        rng = np.random.default_rng(33)
        for k in range(1, 41):
            d = int(rng.integers(1, 14))
            h = int(rng.integers(1, 20))
            layer = make_layer(d, h, rng)
            quantize_model(
                [layer],
                None,
                sig_in_exp=int(rng.integers(-8, -2)),
                sig_exp=int(rng.integers(-8, -4)),
                cell_exp=int(rng.integers(-10, -5)),
                pre_exp=int(rng.integers(-10, -5)),
                act_exp=int(rng.integers(-8, -5)),
            )
            q = layer.quantized
            cfg = HwConfig(pes_per_array=int(rng.integers(1, 9)), fast_mac=fast)
            m_in, m_out = q.fmt.sig_in.max_level, q.fmt.sig_out.max_level
            x_block = rng.integers(-m_in, m_in + 1, size=(d, k)).astype(float)
            h_lev = rng.integers(-m_out, m_out + 1, size=h).astype(float)
            c_lev = rng.integers(-4096, 4097, size=h).astype(float)
            check_block_against_reference(q, x_block, h_lev, c_lev, cfg)

    @pytest.mark.parametrize("k", [1, 2, 17, 40])
    @pytest.mark.parametrize("fast", [True, False])
    def test_block_halves_float64_fallback(self, fast, k):
        # as in TestReferenceOracle: 12-bit weights over 512 inputs keep the
        # levels in float64, and the first column drives row 0 past 2^24
        rng = np.random.default_rng(34)
        d, h = 512, 40
        layer = make_layer(d, h, rng)
        quantize_model([layer], None, weight_bits=12)
        q = layer.quantized
        assert q.wx_lev.dtype == np.float64 and q.wh_lev.dtype == np.float64
        m_in, m_out = q.fmt.sig_in.max_level, q.fmt.sig_out.max_level
        x_block = rng.integers(-m_in, m_in + 1, size=(d, k)).astype(float)
        x_block[:, 0] = m_in * np.sign(q.wx_lev[0])
        assert np.abs(q.wx_lev @ x_block[:, 0]).max() >= 2**24
        h_lev = rng.integers(-m_out, m_out + 1, size=h).astype(float)
        c_lev = rng.integers(-4096, 4097, size=h).astype(float)
        check_block_against_reference(q, x_block, h_lev, c_lev, HwConfig(pes_per_array=16, fast_mac=fast))


class TestRandomWidths:
    """fixed, hwsim with fast_mac on and off, and the gate-by-gate reference
    give the same bytes over random weight, signal and cell widths, random
    exponents, hidden sizes that are not a multiple of pes_per_array and 1
    to 4 arrays: one stream in blocks of 1 to 20 frames, or a batch of 3
    stepped frame by frame."""

    @settings(max_examples=60)
    @given(data=st.data())
    @pytest.mark.parametrize("batch", [None, 3])
    def test_datapaths_and_reference_give_the_same_bytes(self, batch, data):
        draw = data.draw
        pes = draw(st.integers(2, 8), label="pes_per_array")
        h = pes * draw(st.integers(0, 3)) + draw(st.integers(1, pes - 1))
        d = draw(st.integers(1, 12), label="input_dim")
        k = draw(st.integers(1, 20), label="frames")
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
        layer = make_layer(d, h, rng)
        quantize_model(
            [layer],
            None,
            weight_bits=draw(st.integers(3, 8), label="weight_bits"),
            sig_in_exp=draw(st.integers(-9, -1), label="sig_in_exp"),
            sig_exp=draw(st.integers(-9, -2), label="sig_exp"),
            signal_bits=draw(st.integers(4, 10), label="signal_bits"),
            cell_bits=draw(st.integers(8, 16), label="cell_bits"),
            cell_exp=draw(st.integers(-12, -3), label="cell_exp"),
            pre_exp=draw(st.integers(-12, -4), label="pre_exp"),
            act_exp=draw(st.integers(-10, -5), label="act_exp"),
        )
        q = layer.quantized
        arrays = draw(st.integers(1, 4), label="pe_arrays")
        cfgs = [HwConfig(arrays, pes, fast_mac=fast) for fast in (True, False)]
        cols = () if batch is None else (batch,)

        def levels(scheme, size):
            m = scheme.max_level
            return rng.integers(-m, m + 1, size=size + cols).astype(float)

        x = levels(q.fmt.sig_in, (d, k))
        h0, c0 = levels(q.fmt.sig_out, (h,)), levels(q.fmt.cell, (h,))
        ref = [(h0, c0)]
        for t in range(k):
            ref.append(reference_fixed_step_levels(q, x[:, t], *ref[-1]))
        ref_h = np.stack([rh for rh, _ in ref[1:]], axis=1)
        ref_c = ref[-1][1]

        fixed = [(h0, c0)]
        for t in range(k):
            fixed.append(fixed_step_levels(q, x[:, t], *fixed[-1]))
        got = [(np.stack([fh for fh, _ in fixed[1:]], axis=1), fixed[-1][1])]
        cycles = k * layer_cycles(d, h, cfgs[0]).total
        if batch is None:
            got.append(fixed_block_levels(q, x, h0, c0))
            for cfg in cfgs:
                hw_h, hw_st, hw_cycles = simulate_layer_block(q, x, LstmState(h=h0, c=c0), cfg)
                assert hw_cycles == cycles
                got.append((hw_h, hw_st.c))
        else:
            for cfg in cfgs:
                state, outs = LstmState(h=h0, c=c0), []
                for t in range(k):
                    hw_h, state, _ = simulate_layer(q, x[:, t], state, cfg)
                    outs.append(hw_h)
                got.append((np.stack(outs, axis=1), state.c))
        for got_h, got_c in got:
            assert got_h.tobytes() == ref_h.tobytes()
            assert got_c.tobytes() == ref_c.tobytes()


def _col(v, like):
    return v[:, None] if like.ndim == 2 else v


def unfolded_step(q, x_lev, h_lev, c_lev, product):
    """The reference for a step on compiled matrices: a step on the layer's
    levels with its row factors applied after each product, the x-side
    level product times wx_half plus bias_half, then the h-side level
    product times wh_half, then rnn.elementwise_update."""
    dt = q.wx.dtype
    ax = product(q.wx_lev, np.asarray(x_lev, dtype=dt))
    x2 = ax * _col(q.wx_half, ax) + _col(q.bias_half, ax)
    ah = product(q.wh_lev, np.asarray(h_lev, dtype=dt))
    x2 += ah * _col(q.wh_half, ah)
    return elementwise_update(q, x2, c_lev)


# the base exponent s of a layer's row factors 2^s: float64's least (every
# integer times 2^-1074 is a float64), deep in float64's range, float32's
# least normal 2^-126 and either side of it, and ordinary steps
FOLD_BASES = [-1074, -1000, -127, -126, -125, -9]


@st.composite
def folded_lm(draw, base):
    """A two-layer character LM on a random formats table, its levels
    random: the tensors given, name -> (levels, step_exp) per layer, and
    the ModelContainer of the layers built from them. Every row factor of
    a layer is 2^(base + 0..3), gate i of each side's at 2^base exactly,
    and the peephole and bias terms sit at 2^base too, so the accumulator
    bound holds at any base. Weights of 16 bits put each side's bound past
    2^24."""
    wb = draw(st.sampled_from([2, 6, 8, 12, 16]))
    table = fixed_table(sig_in_exp=draw(st.integers(-6, 0)), sig_exp=draw(st.integers(-10, 0)),
                        pre_exp=draw(st.integers(-12, 0)), cell_exp=draw(st.integers(-12, -4)),
                        weight_bits=wb, bias_bits=wb)
    widths = [draw(st.integers(2, 5)) for _ in range(3)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = st.lists(st.integers(0, 3), min_size=3, max_size=3)
    m = (1 << (wb - 1)) - 1
    given_, qlayers = [], []
    for fmt, d, h in zip(layer_formats(table, 2), widths, widths[1:]):
        ex, eh = fmt.sig_in.step_exp, fmt.sig_out.step_exp
        ec, ep = fmt.cell.step_exp, fmt.pre.step_exp
        shift = {"wx": [base] + [base + o for o in draw(offsets)],
                 "wh": [base] + [base + o for o in draw(offsets)]}
        exps = {"wx": [s - ex + ep - 1 for s in shift["wx"]],
                "wh": [s - eh + ep - 1 for s in shift["wh"]],
                "peep": [base - ec + ep - 1] * 3, "bias": [base + ep - 1] * 4}
        tensors = {}
        for (name, shape), group in zip(layer_shapes(d, h).items(),
                                        [g for g, n in LAYER_GROUPS.items() for _ in n]):
            e = exps[group][LAYER_GROUPS[group].index(name)]
            tensors[name] = (rng.integers(-m, m + 1, size=shape).astype(np.float64), e)
        given_.append(tensors)
        qlayers.append(QuantizedLstmLayer.from_tensors(tensors, wb, wb, fmt))
    labels = widths[0]
    qoutput = QuantizedOutputLayer(rng.integers(-m, m + 1, size=(labels, widths[-1])).astype(float),
                                   rng.integers(-m, m + 1, size=labels).astype(float), -4, -4,
                                   wb, wb, qlayers[-1].fmt.sig_out)
    alphabet = Alphabet(symbols=tuple("abcde"[:labels]))
    return given_, ModelContainer("lm", alphabet, table, qlayers, qoutput)


def unfolded_advance(lm, states, labels, product):
    """Every layer's (h, c) of an advance from the slots states by labels,
    each layer stepped by unfolded_step on the loaded state, the first on
    the dense one-hot input."""
    q0 = lm.datapath.qlayers[0]
    h = np.zeros((q0.input_dim, len(labels)))
    h[labels, np.arange(len(labels))] = q0.one_hot
    out = []
    for q, (h_prev, c_prev) in zip(lm.datapath.qlayers, lm.memory.load(states)):
        h, c = unfolded_step(q, h, h_prev, c_prev, product)
        out.append((h, c))
    return out


class TestFoldedRowFactors:
    """Each stacked row of a layer's wx and wh carries its power-of-two
    factor (rnn.QuantizedLstmLayer): over random formats, with row factors
    at float32's exponent edge and deep in float64's range, the compiled
    products equal the level products times the row factors byte for byte,
    in fixed and in hwsim with fast_mac on and off, 1-D, batched, in blocks
    and through the character LM's memo; tensors() gives the levels back
    bit for bit."""

    SETTINGS = [("fixed", HwConfig()), ("hwsim", HwConfig()),
                ("hwsim", HwConfig(pes_per_array=2, fast_mac=False))]

    @pytest.mark.parametrize("base", FOLD_BASES)
    @given(data=st.data())
    def test_compiled_products_equal_level_products_times_row_factors(self, base, data):
        given_, container = data.draw(folded_lm(base))
        rng = np.random.default_rng(5)
        for q, tensors in zip(container.qlayers, given_):
            max_w = (1 << (q.weight_bits - 1)) - 1
            bounds = (max_w * 127 * q.input_dim, max_w * 127 * q.hidden)
            f32 = base >= -126 and max(bounds) < 2**24
            assert q.wx.dtype == q.wh.dtype == (np.float32 if f32 else np.float64)
            for name, (lev, e) in q.tensors().items():
                assert lev.tobytes() == np.asarray(tensors[name][0], lev.dtype).tobytes()
                assert e == tensors[name][1]
            for _, hw in self.SETTINGS:
                product = hwsim._product(hw, 4)
                for w, lev, half in ((q.wx, q.wx_lev, q.wx_half), (q.wh, q.wh_lev, q.wh_half)):
                    for cols in ((), (1,), (3,), (6,)):
                        x = rng.integers(-127, 128, size=w.shape[1:] + cols).astype(w.dtype)
                        got, want = product(w, x), product(lev, x)
                        assert got.dtype == w.dtype
                        assert got.astype(np.float64).tobytes() == (want * _col(half, want)).tobytes()

    @pytest.mark.parametrize("base", FOLD_BASES)
    @given(data=st.data())
    def test_steps_and_blocks_equal_the_unfolded_step(self, base, data):
        _, container = data.draw(folded_lm(base))
        rng = np.random.default_rng(6)
        for q in container.qlayers:
            for mode, hw in self.SETTINGS:
                product = hwsim._product(hw, 4)
                for cols in ((), (3,)):
                    x = rng.integers(-127, 128, size=(q.input_dim,) + cols).astype(float)
                    h = rng.integers(-127, 128, size=(q.hidden,) + cols).astype(float)
                    c = rng.integers(-4096, 4097, size=(q.hidden,) + cols).astype(float)
                    want = unfolded_step(q, x, h, c, product)
                    if mode == "fixed":
                        got = fixed_step_levels(q, x, h, c)
                    else:
                        got_h, st_, _ = simulate_layer(q, x, LstmState(h=h, c=c), hw)
                        got = (got_h, st_.c)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                k = 5
                x_block = rng.integers(-127, 128, size=(q.input_dim, k)).astype(float)
                h = rng.integers(-127, 128, size=q.hidden).astype(float)
                c = rng.integers(-4096, 4097, size=q.hidden).astype(float)
                if mode == "fixed":
                    blk_h, blk_c = fixed_block_levels(q, x_block, h, c)
                else:
                    blk_h, blk_st, _ = simulate_layer_block(q, x_block, LstmState(h=h, c=c), hw)
                    blk_c = blk_st.c
                for t in range(k):
                    h, c = unfolded_step(q, x_block[:, t], h, c, product)
                    assert blk_h[:, t].tobytes() == h.tobytes()
                assert blk_c.tobytes() == c.tobytes()

    @pytest.mark.parametrize("base", FOLD_BASES)
    @given(data=st.data())
    def test_lm_memo_advances_equal_the_unfolded_step(self, base, data):
        _, container = data.draw(folded_lm(base))
        n = container.alphabet.n_labels
        for mode, hw in self.SETTINGS:
            lm = engine._make_char_lm(container, engine.RunConfig(mode=mode, beam_width=16, hw=hw))
            product = hwsim._product(hw, 4)
            root, _ = lm.start()
            states = [root]
            # the first advance from a slot makes its products; the second
            # and third read them from the memo
            for parents, labels in (([0, 0], [0, n - 1]), ([1, 1, 2], [1, 0, 1]),
                                    ([1, 2], [n - 1, 0])):
                slots = [states[p] for p in parents]
                want = unfolded_advance(lm, slots, labels, product)
                handles, _ = lm.advance_batch(slots, labels)
                for (h, c), (want_h, want_c) in zip(lm.memory.load(handles), want):
                    assert (h.tobytes(), c.tobytes()) == (want_h.tobytes(), want_c.tobytes())
                states += handles
            assert {states[1], states[2]} <= lm._known


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

    def test_growth_keeps_the_earlier_slots(self):
        """Batches of 2, 3 and 6 columns outgrow the first two allocations;
        every slot still loads the bytes it was given, in both layers."""
        mem = ContextMemory(capacity=2)
        rng = np.random.default_rng(29)
        batches = [[(rng.normal(size=(H, b)), rng.normal(size=(H, b))) for H in (5, 3)]
                   for b in (2, 3, 6)]
        stored = [mem.store(layers) for layers in batches]
        assert mem.live == mem.peak_live == 11
        for slots, layers in zip(stored, batches):
            for (h, c), (want_h, want_c) in zip(mem.load(slots), layers):
                assert (h.tobytes(), c.tobytes()) == (want_h.tobytes(), want_c.tobytes())

    def test_a_slot_is_a_copy(self):
        """Writing to the stored batch output afterwards, or to a loaded
        state, leaves the slot as it was stored."""
        mem = ContextMemory(capacity=4)
        h, c = np.arange(6.0).reshape(3, 2), -np.arange(6.0).reshape(3, 2)
        want = h.tobytes(), c.tobytes()
        slots = mem.store([(h, c)])
        h[:] = 99.0
        c[:] = 99.0
        [(got_h, got_c)] = mem.load(slots)
        assert (got_h.tobytes(), got_c.tobytes()) == want
        got_h[:] = 7.0
        [(again_h, _)] = mem.load(slots)
        assert again_h.tobytes() == want[0]

    def test_batched_release(self):
        mem = ContextMemory(capacity=4)
        slots = mem.store([(np.zeros((2, 4)), np.zeros((2, 4)))])
        mem.release(np.array(slots[:3]))
        assert (mem.live, mem.peak_live) == (1, 4)
        with pytest.raises(KeyError, match=f"context slot {slots[3]} is released twice"):
            mem.release([slots[3], slots[3]])
        assert mem.live == 1
        # the freed slots come back, the last freed first, before a new one
        assert mem.store([(np.ones((2, 4)), np.ones((2, 4)))]) == [*slots[2::-1], 4]

    def test_a_freed_slot_is_named_on_load_and_release(self):
        mem = ContextMemory(capacity=2)
        a, b = mem.store([(np.zeros((2, 2)), np.zeros((2, 2)))])
        mem.release([a])
        for call in (mem.load, mem.release):
            with pytest.raises(KeyError, match=f"context slot {a} is not live"):
                call([b, a])
        assert mem.live == 1
        [(h, _)] = mem.load([b])
        assert h.shape == (2, 1)


class TestMemoryFootprint:
    def test_context_formula(self):
        rng = np.random.default_rng(26)
        lm = [make_layer(30, 256, rng), make_layer(256, 256, rng)]
        quantize_model(lm, None)
        rep = memory_footprint([], [l.quantized for l in lm], beam_width=128)
        # per slot and layer: 256 8-bit h levels and 256 16-bit c levels
        assert rep["mem.context"] == 128 * 2 * 256 * (8 + 16) // 8 == 196_608

    def test_context_follows_the_lm_cell_width(self):
        rng = np.random.default_rng(28)
        context = {}
        for bits in (16, 32):
            lm = [make_layer(30, 64, rng), make_layer(64, 64, rng)]
            quantize_model(lm, None, cell_bits=bits)
            rep = memory_footprint([], [l.quantized for l in lm], beam_width=8)
            context[bits] = rep["mem.context"]
        # beam 8 x two 64-wide layers x (8-bit h + 16- or 32-bit c) / 8
        assert context == {16: 3_072, 32: 5_120}

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
