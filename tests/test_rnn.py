"""LSTM engine tests against the straight-line oracle plus closed forms."""

import numpy as np
import pytest

from qasr.container import ModelContainer
from qasr.container import quantize_model as quantize_container
from qasr.quant import QuantScheme, round_saturate
from qasr.rnn import (
    LstmState,
    QuantizedLstmLayer,
    build_lut,
    column_products,
    count_params_dims,
    fixed_step_levels,
    lookup,
    lstm_step,
    softmax,
    zero_state,
)
from qasr.toy import ToySpec, build_toy_models, gen_toy

from helpers import (
    TILE_EDGES,
    fixed_formats,
    make_layer,
    make_output,
    quantize_model,
    reference_fixed_step_levels,
    round_half_away,
    straight_line_lstm_step,
    zero_layer,
)


class TestColumnProducts:
    """rnn.column_products gives each column the bits of its own GEMV,
    whatever the number of columns, on a matrix of the stacked gates' shape
    at H = 256."""

    @pytest.mark.parametrize("k", sorted(TILE_EDGES))
    def test_each_column_is_its_own_gemv(self, k):
        rng = np.random.default_rng(k)
        w = rng.standard_normal((1024, 256))
        x = rng.standard_normal((256, k))
        got = column_products(w, x)
        assert got.shape == (1024, k) and got.T.flags.c_contiguous
        for j in range(k):
            assert got[:, j].tobytes() == (w @ x[:, j]).tobytes(), j

    def test_one_column_vector(self):
        rng = np.random.default_rng(0)
        w, x = rng.standard_normal((1024, 256)), rng.standard_normal(256)
        got = column_products(w, x)
        assert got.shape == (1024,) and got.tobytes() == (w @ x).tobytes()


class TestFloatStep:
    def test_all_zero_params_zero_state(self):
        p = zero_layer(3, 4)
        h, st = lstm_step(p, np.zeros(3), zero_state(4), mode="float")
        np.testing.assert_array_equal(h, np.zeros(4))
        np.testing.assert_array_equal(st.c, np.zeros(4))

    def test_zero_weights_unit_cell(self):
        # i = f = o = sigmoid(0) = 0.5, c~ = 0, c_t = 0.5, h = 0.5*tanh(0.5)
        p = zero_layer(2, 1)
        st = LstmState(h=np.zeros(1), c=np.ones(1))
        h, st2 = lstm_step(p, np.zeros(2), st, mode="float")
        assert st2.c[0] == pytest.approx(0.5)
        assert h[0] == pytest.approx(0.5 * np.tanh(0.5), abs=1e-12)
        assert h[0] == pytest.approx(0.231059, abs=1e-6)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(42)
        p = make_layer(16, 16, rng)
        x = rng.normal(size=16)
        h0 = rng.uniform(-0.5, 0.5, size=16)
        c0 = rng.normal(size=16)
        h_ref, c_ref = straight_line_lstm_step(p, x, h0, c0)
        h, st = lstm_step(p, x, LstmState(h=h0.copy(), c=c0.copy()), mode="float")
        np.testing.assert_allclose(h, h_ref, atol=1e-12)
        np.testing.assert_allclose(st.c, c_ref, atol=1e-12)

    def test_multi_step_matches_oracle(self):
        rng = np.random.default_rng(3)
        p = make_layer(8, 12, rng)
        h_ref, c_ref = np.zeros(12), np.zeros(12)
        st = zero_state(12)
        for _ in range(5):
            x = rng.normal(size=8)
            h_ref, c_ref = straight_line_lstm_step(p, x, h_ref, c_ref)
            h, st = lstm_step(p, x, st, mode="float")
        np.testing.assert_allclose(h, h_ref, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        p = zero_layer(3, 4)
        with pytest.raises(ValueError):
            lstm_step(p, np.zeros(5), zero_state(4), mode="float")


class TestFixedStep:
    def test_requires_quantized_params(self):
        p = zero_layer(3, 4)
        with pytest.raises(ValueError, match="quantized"):
            lstm_step(p, np.zeros(3), zero_state(4), mode="fixed")

    def test_zero_model_zero_state_is_exact_zero(self):
        p = zero_layer(2, 1)
        quantize_model([p], None)
        h, st = lstm_step(p, np.zeros(2), zero_state(1), mode="fixed")
        assert h[0] == 0.0
        assert st.c[0] == 0.0

    def test_zero_model_closed_form(self):
        p = zero_layer(2, 1)
        quantize_model([p], None)
        # c_{t-1} = 1.0 is level 256 in the 2^-8 cell scheme
        st = LstmState(h=np.zeros(1), c=np.array([256.0]))
        h, st2 = lstm_step(p, np.zeros(2), st, mode="fixed")
        c_real = st2.c[0] * p.quantized.fmt.cell.step
        assert c_real == 0.5  # 0.5*1.0 + 0.5*0, exactly representable
        assert h[0] == pytest.approx(0.5 * np.tanh(0.5), abs=1e-2)

    def test_close_to_float(self):
        rng = np.random.default_rng(11)
        p = make_layer(12, 20, rng)
        quantize_model([p], None)
        stf = zero_state(20)
        stq = zero_state(20)
        worst = 0.0
        for _ in range(20):
            x = rng.uniform(-1, 1, size=12)
            hf, stf = lstm_step(p, x, stf, mode="float")
            hq, stq = lstm_step(p, x, stq, mode="fixed")
            worst = max(worst, np.abs(hf - hq).max())
        assert worst <= 0.08

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        p = make_layer(6, 9, rng)
        quantize_model([p], None)
        x = rng.uniform(-1, 1, size=6)

        def run():
            st = zero_state(9)
            outs = []
            for _ in range(4):
                h, st = lstm_step(p, x, st, mode="fixed")
                outs.append((st.h.copy(), st.c.copy()))
            return outs

        a, b = run(), run()
        for (ha, ca), (hb, cb) in zip(a, b):
            np.testing.assert_array_equal(ha, hb)
            np.testing.assert_array_equal(ca, cb)

    def test_bounded_output(self):
        rng = np.random.default_rng(13)
        p = make_layer(5, 7, rng, weight_scale=4.0)
        quantize_model([p], None)
        stf, stq = zero_state(7), zero_state(7)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=5)
            hf, stf = lstm_step(p, x, stf, mode="float")
            hq, stq = lstm_step(p, x, stq, mode="fixed")
            assert np.all(np.abs(hf) <= 1.0)
            assert np.all(np.abs(hq) <= 1.0)


class TestLut:
    def test_sigmoid_at_zero(self):
        lut = build_lut("sigmoid")
        quantum = 2.0**lut.out_exp
        assert abs(lut.apply_real(0.0) - 0.5) <= quantum

    def test_tanh_odd_symmetry_exact_on_grid(self):
        lut = build_lut("tanh")
        # every sample point above the end cell has an exact mirror
        np.testing.assert_array_equal(lut.entries[1:], -lut.entries[1:][::-1])
        assert lut.apply_real(0.0) == 0.0
        grid = lut.grid()[1:]
        np.testing.assert_array_equal(lut.apply_real(-grid), -lut.apply_real(grid))

    def test_tanh_odd_within_one_step_off_grid(self):
        lut = build_lut("tanh")
        step = 2.0**lut.out_exp
        xs = np.linspace(-7.9, 7.9, 509)
        gap = np.abs(lut.apply_real(-xs) + lut.apply_real(xs))
        assert gap.max() <= step + 1e-12

    def test_sigmoid_cell_error_bound(self):
        lut = build_lut("sigmoid", 1024, (-8.0, 8.0))
        exact = 1.0 / (1.0 + np.exp(-lut.grid()))
        err = np.abs(lut.entries * 2.0**lut.out_exp - exact)
        assert err.max() <= 0.005

    def test_sigmoid_complement_within_one_step(self):
        lut = build_lut("sigmoid")
        step = 2.0**lut.out_exp
        xs = np.linspace(-7.5, 7.5, 101)
        gap = np.abs(lut.apply_real(-xs) - (1.0 - lut.apply_real(xs)))
        assert gap.max() <= step + 1e-12

    def test_monotone(self):
        for kind in ("sigmoid", "tanh"):
            lut = build_lut(kind)
            assert np.all(np.diff(lut.entries) >= 0)

    def test_out_of_range_clamps(self):
        lut = build_lut("tanh")
        assert lut.apply_real(100.0) == lut.entries[-1] * 2.0**lut.out_exp
        assert lut.apply_real(-100.0) == lut.entries[0] * 2.0**lut.out_exp

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            build_lut("sigmoid", resolution=1000)

    def test_index_rounds_just_below_half_down(self):
        # u + 0.5 rounds up to 1.0 in float64 for the largest u below 1/2;
        # the index rounds as round_saturate does, to the nearest entry
        lut = build_lut("tanh", input_range=(0.0, 8.0))
        assert lut.entries[0] == 0 and lut.entries[1] > 0
        assert lut.apply_real(np.nextafter(0.5, 0.0) * lut.spacing) == 0.0
        assert lut.apply_real(0.5 * lut.spacing) == lut.entries[1] * 2.0**lut.out_exp


class TestLevelTables:
    @pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
    @pytest.mark.parametrize("scheme", ["pre", "cell"])
    def test_level_table_is_apply_levels_and_memoized(self, kind, scheme):
        fmt = fixed_formats()[0]
        lut = fmt.lut_sigmoid if kind == "sigmoid" else fmt.lut_tanh
        s = getattr(fmt, scheme)
        m = s.max_level
        table = lut.level_table(s.step_exp, m)
        levels = np.arange(-m, m + 1)
        np.testing.assert_array_equal(table, lut.apply_levels(levels, s.step_exp))
        assert lut.level_table(s.step_exp, m) is table
        assert not table.flags.writeable

    @pytest.mark.parametrize(
        "fmt_kw",
        [
            {},
            dict(lut_lo=-4.0, lut_hi=6.0, act_exp=-6, pre_exp=-10, cell_exp=-5),
            dict(lut_resolution=64, pre_exp=-3, cell_exp=-12),
        ],
    )
    def test_layer_tables_cover_every_level_of_the_schemes(self, fmt_kw):
        # the datapath reads the pre-activation tables at twice a level and
        # the tanh(c) table at the cell level; both clip to their ends
        p = zero_layer(2, 3)
        quantize_model([p], None, **fmt_kw)
        q = p.quantized
        fmt = q.fmt
        sig, sig_f, tanh_ic, tanh_h = q.tables()
        for table, lut, scheme, reach, scale, at in (
            (sig, fmt.lut_sigmoid, fmt.pre, q.pre_reach, 1.0, 2),
            (sig_f, fmt.lut_sigmoid, fmt.pre, q.pre_reach, q.k_fc, 2),
            (tanh_ic, fmt.lut_tanh, fmt.pre, q.pre_reach, q.k_ic, 2),
            (tanh_h, fmt.lut_tanh, fmt.cell, q.cell_reach, q.k_h, 1),
        ):
            assert len(table) == at * (2 * reach + 2) - 1
            assert reach <= scheme.max_level
            levels = np.arange(-scheme.max_level, scheme.max_level + 1)
            got = lookup(table, at * levels.astype(float))
            np.testing.assert_array_equal(got, lut.apply_levels(levels, scheme.step_exp) * scale)

    def test_wide_cell_scheme_keeps_its_table_small(self):
        # 32-bit cells: a table over every cell level would need 2^32 entries
        rng = np.random.default_rng(16)
        p = make_layer(5, 6, rng)
        quantize_model([p], None, cell_bits=32)
        q = p.quantized
        assert len(q.tables()[3]) == 2 * q.cell_reach + 1 < 2**13
        h_lev = rng.integers(-127, 128, size=6).astype(float)
        c_lev = rng.choice([-1.0, 1.0], size=6) * rng.integers(0, 2**31 - 1, size=6)
        for _ in range(3):
            x_lev = rng.integers(-127, 128, size=5).astype(float)
            ref = reference_fixed_step_levels(q, x_lev, h_lev, c_lev)
            got = fixed_step_levels(q, x_lev, h_lev, c_lev)
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)
            h_lev, c_lev = ref

    def test_container_builds_tables_on_first_step_and_shares_them(self, tmp_path):
        am = ModelContainer.read(gen_toy("tiny,frames=1,seed=4", tmp_path)["am"])
        luts = (am.qlayers[0].fmt.lut_sigmoid, am.qlayers[0].fmt.lut_tanh)
        assert all(not lut._level_tables for lut in luts)
        for q in am.qlayers:
            assert (q.fmt.lut_sigmoid, q.fmt.lut_tanh) == luts
            assert q.fmt.lut_sigmoid is luts[0] and q.fmt.lut_tanh is luts[1]
            fixed_step_levels(q, np.zeros(q.input_dim), np.zeros(q.hidden), np.zeros(q.hidden))
        q = am.qlayers[0]
        ep, ec, r = q.fmt.pre.step_exp, q.fmt.cell.step_exp, q.pre_reach
        assert set(luts[0]._level_tables) == {("half", ep, r, 1.0), ("half", ep, r, q.k_fc)}
        assert set(luts[1]._level_tables) == {
            ("half", ep, r, q.k_ic),
            ("level", ec, q.cell_reach, q.k_h),
        }
        first = am.qlayers[0].tables()
        for q in am.qlayers[1:]:
            assert all(a is b for a, b in zip(q.tables(), first))


def _quarter_levels(reach):
    """Every quarter-level in [-(reach + 2), reach + 2], and +-2^40."""
    quarters = np.arange(-4 * (reach + 2), 4 * (reach + 2) + 1) / 4
    return np.concatenate([quarters, [-(2.0**40), 2.0**40]])


def _rounded_lookup(lut, in_exp, reach, x):
    """round_half_away, then saturate to the reach, then the level table."""
    levels = np.clip(round_half_away(x), -reach, reach)
    return lut.level_table(in_exp, reach)[levels.astype(np.intp) + reach]


class TestHalfLevels:
    """A half-level table read at trunc(2x) rounds x half away from zero,
    saturates it to the table's reach and looks it up, in one cast."""

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
    @pytest.mark.parametrize("reach", [1, 7, 2048, "pre.max_level"])
    def test_lookup_is_round_saturate_level_table(self, kind, reach):
        fmt = fixed_formats()[0]
        lut = fmt.lut_sigmoid if kind == "sigmoid" else fmt.lut_tanh
        ep = fmt.pre.step_exp
        if reach == "pre.max_level":
            reach = fmt.pre.max_level
        x = _quarter_levels(reach)
        got = lookup(lut.half_level_table(ep, reach), 2 * x)
        np.testing.assert_array_equal(got, _rounded_lookup(lut, ep, reach, x))
        scaled = lookup(lut.half_level_table(ep, reach, 2.0**-9), 2 * x)
        np.testing.assert_array_equal(scaled, got * 2.0**-9)

    def test_narrow_cell_reach_is_its_max_level(self):
        # 8-bit cells at step 2^-4 cover +-7.9, inside tanh's +-8 range: the
        # table's reach is the scheme's max level, so saturation and the
        # table's clip meet at one level
        p = zero_layer(2, 3)
        quantize_model([p], None, cell_bits=8, cell_exp=-4)
        q = p.quantized
        lut, ec, m = q.fmt.lut_tanh, q.fmt.cell.step_exp, q.fmt.cell.max_level
        assert q.cell_reach == m
        x = _quarter_levels(m)
        want = _rounded_lookup(lut, ec, m, x)
        np.testing.assert_array_equal(lookup(lut.half_level_table(ec, m), 2 * x), want)
        # the update rounds the cell to its levels, then reads tanh(c) by level
        c_new = round_saturate(x.copy(), m)
        np.testing.assert_array_equal(lookup(q.tables()[3], c_new), want * q.k_h)


class TestRangeGuard:
    """A format whose doubled pre-activation, cell or output values could
    reach 2^62 is refused: beyond it the element-wise update's integer cast
    would overflow without a sign."""

    @staticmethod
    def aligned_zero_layer(fmt, e, d=2, h=3):
        # every accumulator term at scale 2^e, so the accumulator bound holds
        ex, eh, ec = fmt.sig_in.step_exp, fmt.sig_out.step_exp, fmt.cell.step_exp
        return QuantizedLstmLayer(
            wx_lev=np.zeros((4 * h, d)), wh_lev=np.zeros((4 * h, h)),
            peep_lev=np.zeros((3, h)), bias_lev=np.zeros((4, h)),
            wx_exp=(e - ex,) * 4, wh_exp=(e - eh,) * 4,
            peep_exp=(e - ec,) * 3, bias_exp=(e,) * 4,
            weight_bits=6, bias_bits=6, fmt=fmt,
        )

    @pytest.mark.parametrize(
        "what, fmt_kw, e",
        [
            ("pre-activation", dict(pre_exp=-60), -10),
            ("cell", dict(cell_exp=-70), -80),
            ("output", dict(sig_exp=-61), -75),
        ],
    )
    def test_contrived_format_is_refused_naming_the_bound(self, what, fmt_kw, e):
        with pytest.raises(ValueError, match=rf"doubled {what} .*2\^62"):
            self.aligned_zero_layer(fixed_formats(**fmt_kw)[0], e)

    def test_default_format_is_accepted(self):
        self.aligned_zero_layer(fixed_formats()[0], -14)

    def test_a_row_factor_below_float64_is_refused(self):
        # every term at 2^e puts each row factor at 2^(e - pre_exp + 1)
        fmt = fixed_formats()[0]
        ep = fmt.pre.step_exp
        q = self.aligned_zero_layer(fmt, -1074 + ep - 1)
        assert q.wx.dtype == np.float64 and q.wx_half[0] == 2.0**-1074
        with pytest.raises(ValueError, match="row factor below the float64 range"):
            self.aligned_zero_layer(fmt, -1075 + ep - 1)

    def test_the_bound_is_2_to_the_62(self):
        # the doubled output is 2 * 256 * 256 * 2^(-16 - sig_exp)
        self.aligned_zero_layer(fixed_formats(sig_exp=-60)[0], -75)
        with pytest.raises(ValueError, match="doubled output can reach 4.612e"):
            self.aligned_zero_layer(fixed_formats(sig_exp=-61)[0], -75)


class TestCompiledLayer:
    def test_small_preset_levels_are_float32_single_copy(self):
        for model in build_toy_models(ToySpec("small", seed=1)):
            container = quantize_container(model, include_float=False)
            for q in container.qlayers:
                # the compiled matrices, row factors folded in, are the
                # only copy; wx_lev and wh_lev are made from them on read
                assert q.wx.dtype == np.float32 and q.wh.dtype == np.float32
                assert q.wx.base is None and q.wh.base is None
                floor = min(q.wx.size, q.wh.size)
                big = sorted(
                    k for k, v in vars(q).items() if isinstance(v, np.ndarray) and v.size >= floor
                )
                assert big == ["wh", "wx"]

    def test_output_logits_scale_and_bias_bit_identical(self):
        rng = np.random.default_rng(14)
        out = make_output(16, 5, rng)
        quantize_model([make_layer(3, 16, rng)], out)
        qo = out.quantized
        b = qo.b_lev * 2.0**qo.b_exp
        for shape in ((5,), (5, 4)):
            acc = rng.integers(-5000, 5000, size=shape).astype(float)
            bias = b[:, None] if acc.ndim == 2 else b
            want = acc * 2.0 ** (qo.w_exp + qo.sig_in.step_exp) + bias
            np.testing.assert_array_equal(qo.logits_from_acc(acc), want)


class TestCountParams:
    def test_single_1x1_layer(self):
        assert count_params_dims([(1, 1)], None) == 15

    def test_output_only(self):
        assert count_params_dims([], (4, 2)) == 10

    def test_small_model_parameter_total(self):
        am = count_params_dims([(123, 256), (256, 256), (256, 256)], (256, 31))
        lm = count_params_dims([(30, 256), (256, 256)], (256, 30))
        total = am + lm
        assert total == 2278461
        assert abs(total - 2.3e6) / 2.3e6 < 0.03


def test_softmax_rows_normalized():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(5, 31)) * 10
    np.testing.assert_allclose(softmax(z).sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("labels", [1, 5, 8, 31, 64])
def test_softmax_block_rows_equal_single_rows(labels):
    # the acoustic model takes the softmax of a (k, labels) block of logits
    # and must give the bits of one call per frame
    rng = np.random.default_rng(9)
    for k in (1, 2, 3, 7, 16, 17, 32, 33):
        z = np.ascontiguousarray(rng.normal(size=(k, labels)) * 10)
        block = softmax(z)
        for row, zi in zip(block, z):
            assert row.tobytes() == softmax(zi.copy()).tobytes()


def test_helper_chains_each_layer_on_the_one_below():
    rng = np.random.default_rng(41)
    layers = [make_layer(3, 4, rng), make_layer(4, 5, rng)]
    quantize_model(layers, None, sig_exp=-5)
    f0, f1 = (p.quantized.fmt for p in layers)
    assert f0.sig_in == QuantScheme(bits=8, step=2.0**-7)
    assert f1.sig_in == f0.sig_out == QuantScheme(bits=8, step=2.0**-5)


def test_fixed_scheme_sanity():
    fmt = fixed_formats()[0]
    assert fmt.sig_in == QuantScheme(bits=8, step=2.0**-7)
    assert fmt.cell.max_value > 100  # 16-bit cells cover a wide dynamic range
