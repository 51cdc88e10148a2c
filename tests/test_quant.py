"""Quantizer unit tests.

Expected values for the non-trivial cases were computed by hand from the
round/saturate definition (e.g. 0.1234/0.0625 = 1.9744 -> level 2) and the
step search is cross-checked against an exhaustive scan oracle below.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasr import quant
from qasr.cli import main_quantize
from qasr.container import save_float_model
from qasr.quant import (
    SEARCH_CHUNK,
    QuantScheme,
    dequantize,
    quantize,
    search_step,
)
from qasr.toy import ToySpec, build_toy_models

from helpers import exact_round_half_away, reference_search_step, round_half_away


def brute_force_best_step(values, bits):
    """Independent scan over the same candidate exponents, tracking SSE."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    max_abs = float(np.max(np.abs(arr)))
    lo = math.floor(math.log2(max_abs)) - (bits + 2)
    hi = math.ceil(math.log2(max_abs)) + 2
    m = (1 << (bits - 1)) - 1
    results = {}
    for e in range(lo, hi + 1):
        step = 2.0**e
        lev = np.clip(np.sign(arr) * np.floor(np.abs(arr) / step + 0.5), -m, m)
        results[e] = float(np.sum((arr - lev * step) ** 2))
    return results


def exact_best_step(values, bits):
    """The step search in exact rational arithmetic: every candidate step
    rounds the signed values half away from zero, saturates and sums the
    squared error; ties go to the smallest step."""
    vals = [Fraction(float(v)) for v in values]
    max_abs = max(abs(v) for v in vals)
    lo = math.floor(math.log2(max_abs)) - (bits + 2)
    hi = math.ceil(math.log2(max_abs)) + 2
    m = (1 << (bits - 1)) - 1
    sses = {}
    for e in range(lo, hi + 1):
        step = Fraction(2) ** e
        lev = [max(-m, min(m, exact_round_half_away(v / step))) for v in vals]
        sses[e] = sum((v - int(k) * step) ** 2 for v, k in zip(vals, lev))
    return min(sses, key=lambda e: (sses[e], e))


class TestQuantScheme:
    def test_valid(self):
        s = QuantScheme(bits=6, step=0.0625)
        assert s.max_level == 31
        assert s.step_exp == -4
        assert s.max_value == pytest.approx(1.9375)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            QuantScheme(bits=1, step=0.5)

    @pytest.mark.parametrize("step", [0.0, -0.5, 0.3, float("inf"), float("nan")])
    def test_rejects_bad_step(self, step):
        with pytest.raises(ValueError):
            QuantScheme(bits=6, step=step)


class TestQuantize:
    def test_zero_is_fixed_point(self):
        q = quantize(0.0, QuantScheme(bits=6, step=0.0625))
        assert q.levels == 0
        assert dequantize(q) == 0.0

    def test_round_to_nearest(self):
        # 0.1234 / 0.0625 = 1.9744 rounds to level 2 -> 0.125
        q = quantize(0.1234, QuantScheme(bits=6, step=0.0625))
        assert q.levels == 2
        assert dequantize(q) == 0.125

    def test_saturation(self):
        # 10.0 / 0.0625 = 160 clips at 2^5 - 1 = 31 -> 1.9375
        q = quantize(10.0, QuantScheme(bits=6, step=0.0625))
        assert q.levels == 31
        assert dequantize(q) == 1.9375

    def test_ties_away_from_zero(self):
        s = QuantScheme(bits=8, step=1.0)
        assert quantize(0.5, s).levels == 1
        assert quantize(-0.5, s).levels == -1
        assert quantize(1.5, s).levels == 2

    def test_one_ulp_below_half_rounds_to_zero(self):
        below = np.nextafter(0.5, 0.0)  # 0.49999999999999994
        q = quantize([below, -below], QuantScheme(bits=8, step=1.0))
        np.testing.assert_array_equal(q.levels, [0, 0])

    def test_rejects_non_finite_with_location(self):
        s = QuantScheme(bits=6, step=0.0625)
        bad = np.array([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            quantize(bad, s)

    def test_idempotence(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=1000) * 3.0
        s = QuantScheme(bits=6, step=0.0625)
        once = quantize(x, s)
        twice = quantize(dequantize(once), s)
        np.testing.assert_array_equal(once.levels, twice.levels)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=1000)
        s = QuantScheme(bits=8, step=2.0**-6)
        np.testing.assert_array_equal(
            quantize(-x, s).levels, -quantize(x, s).levels
        )

    @pytest.mark.parametrize("bits", [2, 6, 31, 32, 33, 35, 52, 53])
    def test_exact_at_every_width(self, bits):
        # float64 levels hold every integer of a 53-bit scheme; an int32
        # level would wrap above 2^31
        rng = np.random.default_rng(bits)
        s = QuantScheme(bits=bits, step=2.0**-7)
        x = rng.uniform(-1.25, 1.25, size=500) * s.max_value
        q = quantize(x, s)
        assert q.levels.dtype == np.float64
        m = s.max_level  # x / step is exact: the step is a power of two
        want = [max(-m, min(m, exact_round_half_away(v / s.step))) for v in x]
        assert q.levels.tolist() == want

    def test_error_bound_half_step(self):
        rng = np.random.default_rng(9)
        s = QuantScheme(bits=8, step=2.0**-5)
        # stay inside the non-saturated range
        x = rng.uniform(-s.max_value, s.max_value, size=5000)
        err = np.abs(x - dequantize(quantize(x, s)))
        assert err.max() <= s.step / 2 + 1e-15


class TestSearchStep:
    def test_exact_pair(self):
        s = search_step(np.array([-1.0, 1.0]), bits=2)
        assert s.step == 1.0
        q = quantize(np.array([-1.0, 1.0]), s)
        np.testing.assert_array_equal(dequantize(q), [-1.0, 1.0])

    def test_single_value_exact(self):
        s = search_step(np.array([0.5]), bits=6)
        assert s.step == 2.0**-5
        assert quantize(0.5, s).levels == 16

    def test_optimal_against_scan(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1.0, 1.0, size=4000)
        s = search_step(x, bits=6)
        scan = brute_force_best_step(x, bits=6)
        q = quantize(x, s)
        sse = float(np.sum((x - dequantize(q)) ** 2))
        assert sse <= min(scan.values()) + 1e-12
        assert sse == pytest.approx(scan[s.step_exp])

    @settings(max_examples=300)
    @given(data=st.data())
    def test_equals_signed_value_oracle(self, data):
        bits = data.draw(st.integers(2, 16), label="bits")
        n = data.draw(st.integers(1, 40), label="n")
        mags = data.draw(st.lists(st.floats(1e-4, 1e3), min_size=n, max_size=n), label="mags")
        values = np.array(mags) * data.draw(
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n), label="signs"
        )
        # values on exact half-steps of one of the candidate steps, where
        # rounding half away from zero decides the level, and one ulp below
        # them, where it must not carry
        e = math.floor(math.log2(max(mags))) - data.draw(st.integers(0, bits + 2), label="e")
        ks = data.draw(st.lists(st.integers(-(1 << (bits - 1)), 1 << (bits - 1)), max_size=8))
        half_steps = (np.array(ks) + np.copysign(0.5, ks)) * 2.0**e
        values = np.concatenate([values, half_steps, np.nextafter(half_steps, 0.0)])
        best, _ = reference_search_step(values, bits)
        assert search_step(values, bits).step_exp == best

    @pytest.mark.parametrize("k", [-3, 0, 5])
    @pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (1, -1)])
    def test_one_ulp_below_a_half_step(self, k, signs):
        # at step 2^k, v = (1/2 - 2^-54) * 2^k rounds to level 0 and 1.5 * 2^k
        # saturates to level 1; at step 2^(k+1) the errors are the same, so
        # the tie goes to 2^k. Rounding v up to level 1 breaks the tie.
        values = np.array([signs[0] * np.nextafter(0.5, 0.0), signs[1] * 1.5]) * 2.0**k
        assert exact_best_step(values, 2) == k
        assert reference_search_step(values, 2)[0] == k
        assert search_step(values, 2).step_exp == k

    def test_all_zero_falls_back(self):
        with pytest.warns(UserWarning):
            s = search_step(np.zeros(4), bits=6)
        assert s.step == 2.0**-5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            search_step(np.array([]), bits=6)


class TestChunkedSearch:
    """search_step's chunked sums against the step search as first written
    (helpers.reference_search_step): the picks are equal, and only ties and
    near-ties are scored again by the reference pass."""

    @pytest.fixture
    def reference_runs(self, monkeypatch):
        runs = []
        reference = quant._reference_sse

        def counted(a, e, m, err):
            runs.append(e)
            return reference(a, e, m, err)

        monkeypatch.setattr(quant, "_reference_sse", counted)
        return runs

    @settings(max_examples=40)
    @given(data=st.data())
    def test_pick_equals_the_oracle_at_the_chunk_edges(self, data):
        C = SEARCH_CHUNK
        n = data.draw(st.sampled_from([1, C - 1, C, C + 1, 2 * C + 3]), label="n")
        bits = data.draw(st.integers(2, 16), label="bits")
        e = data.draw(st.integers(-40, 40), label="e")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = rng.normal(size=n) * 2.0**e
        # a share of the values, the chunk edges among them, on exact half
        # steps of a candidate step or on powers of two
        kind = data.draw(st.sampled_from(["half steps", "powers of two"]), label="kind")
        share = data.draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]), label="share")
        at = np.unique(np.concatenate([
            rng.choice(n, size=int(share * n), replace=False),
            [i for i in (0, C - 1, C, C + 1, n - 1) if i < n and share],
        ])).astype(np.intp)
        signs = rng.choice([-1.0, 1.0], size=at.size)
        if kind == "half steps":
            m = (1 << (bits - 1)) - 1
            k = rng.integers(0, m + 1, size=at.size) + 0.5
            values[at] = signs * k * 2.0 ** (e - data.draw(st.integers(0, 3), label="shift"))
        else:
            values[at] = signs * np.ldexp(1.0, e - rng.integers(0, bits + 3, size=at.size))
        best, _ = reference_search_step(values, bits)
        assert search_step(values, bits).step_exp == best

    @pytest.mark.parametrize("at", [0, SEARCH_CHUNK - 1, SEARCH_CHUNK, SEARCH_CHUNK + 1,
                                    2 * SEARCH_CHUNK + 2])
    def test_a_lone_value_at_a_chunk_edge_is_scored_in_its_chunk(self, at, reference_runs):
        # one clear best step: a value the chunks left out would leave every
        # chunked SSE at 0, a tie that the reference pass would break
        values = np.zeros(2 * SEARCH_CHUNK + 3)
        values[at] = -0.9
        best, sses = reference_search_step(values, 6)
        assert sorted(sses.values())[1] > 2 * sses[best]
        assert search_step(values, 6).step_exp == best
        assert reference_runs == []

    def test_an_exact_tie_is_scored_again_by_the_reference(self, reference_runs):
        # at 2 bits, [1.5] saturates to 1 at step 1 and rounds to 1 at step 2:
        # both SSEs are 0.25, and the smaller step wins
        best, sses = reference_search_step([1.5], 2)
        assert (best, sses[0], sses[1]) == (0, 0.25, 0.25) == (0, min(sses.values()), 0.25)
        assert search_step(np.array([1.5]), 2).step_exp == 0
        assert 0 in reference_runs and 1 in reference_runs

    def test_a_gaussian_matrix_needs_no_second_scoring(self, reference_runs):
        x = np.random.default_rng(21).normal(size=(1024, 256))
        assert search_step(x, 6).step_exp == reference_search_step(x, 6)[0]
        assert reference_runs == []

    @pytest.mark.parametrize("bits", [6, 16])
    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-154, 1e-310])
    def test_underflowing_squared_errors_keep_the_oracle_pick(self, scale, bits):
        rng = np.random.default_rng(22)
        for values in (rng.normal(size=1000) * scale, np.array([scale]),
                       np.concatenate([[1.0], rng.normal(size=99) * scale])):
            best, _ = reference_search_step(values, bits)
            assert search_step(values, bits).step_exp == best

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_a_non_finite_magnitude_is_named(self, value):
        with pytest.raises(ValueError, match=f"largest magnitude is {value}"):
            search_step(np.array([1.0, value]), 6)

    @pytest.mark.parametrize("bits", [6, 16])
    @pytest.mark.parametrize("value", [1e300, 1e308])
    def test_a_weight_no_step_quantizes_exits_2_naming_its_tensor(self, tmp_path, capsys,
                                                                  value, bits):
        am, _ = build_toy_models(ToySpec("tiny", seed=3))
        am.layers[0].W_xi[0, 0] = value
        save_float_model(am, tmp_path / "am.npz")
        argv = ["--float-model", str(tmp_path / "am.npz"), "--out", str(tmp_path / "am.qnn"),
                "--weight-bits", str(bits)]
        capsys.readouterr()
        assert main_quantize(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"asr-quantize: tensor layer0.W_xi: no {bits}-bit step quantizes "
                              f"a tensor whose largest magnitude is {value}"), err


def test_round_half_away_scalar_and_array():
    np.testing.assert_array_equal(
        round_half_away(np.array([-2.5, -0.5, 0.0, 0.5, 1.5])),
        [-3.0, -1.0, 0.0, 1.0, 2.0],
    )


def test_round_half_away_equals_sign_floor_form():
    rng = np.random.default_rng(15)
    x = np.concatenate([
        rng.normal(0.0, 1e3, 10000),
        np.arange(-400, 400) / 4.0,
        [0.0, -0.0, 0.49999999999999994, -0.49999999999999994,
         2.0**52 + 1, -(2.0**52 + 1), 2.0**60, -(2.0**60)],
    ])
    for dtype in (np.float64, np.float32):
        v = x.astype(dtype)
        want = np.array([exact_round_half_away(a) for a in v], dtype=dtype)
        got = round_half_away(v)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # the float32 value one ulp below a half, and the first float32 odd
    # integer that float32 arithmetic would round to even
    assert round_half_away(np.float32(np.nextafter(np.float32(0.5), np.float32(0)))) == 0
    assert round_half_away(np.float32(2.0**23 + 1)) == 2.0**23 + 1

