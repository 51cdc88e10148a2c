"""Container tests: packing arithmetic, checksums, byte-identical round
trips, pinned container bytes, header checks, and quantize-model
contracts."""

import hashlib
import json
import math
import re
import zipfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasr.cli import main_decode, main_quantize, quantize_parser

from qasr.container import (
    ContainerError,
    FloatModel,
    ModelContainer,
    load_float_model,
    pack_levels,
    quantize_model,
    save_float_model,
    unpack_levels,
)
from qasr.decoder import Alphabet
from qasr.rnn import (
    _FORMAT_RANGES,
    FORMATS,
    ONE_HOT_SIG_IN_EXP,
    LstmLayerParams,
    OutputLayerParams,
    layer_formats,
    layer_shapes,
)
from qasr.engine import RunConfig, decode
from qasr.frontend import read_feature_file
from qasr.toy import ToySpec, build_toy_models, gen_toy

from helpers import (
    bit_matrix_pack_levels,
    bit_matrix_unpack_levels,
    gather_unpack_levels,
    rewrite_header,
)


@pytest.fixture(scope="module")
def tiny_models():
    return build_toy_models(ToySpec("tiny", seed=5))


class TestPacking:
    def test_fifteen_six_bit_levels_take_twelve_bytes(self):
        levels = np.arange(15) - 7
        blob = pack_levels(levels, 6)
        assert len(blob) == 12

    def test_round_trip_various_widths(self):
        rng = np.random.default_rng(1)
        for bits in (2, 5, 6, 8, 16):
            m = (1 << (bits - 1)) - 1
            lev = rng.integers(-m, m + 1, size=201)
            back = unpack_levels(pack_levels(lev, bits), 201, bits)
            np.testing.assert_array_equal(back, lev)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContainerError):
            pack_levels(np.array([40]), 6)

    @given(bits=st.integers(2, 16), count=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_whole_byte_packing_matches_the_bit_matrix(self, bits, count, seed):
        m = (1 << (bits - 1)) - 1
        lev = np.random.default_rng(seed).integers(-m, m + 1, size=count)
        lev[: min(count, 2)] = [-m, m][: min(count, 2)]  # both ends of the range
        blob = pack_levels(lev, bits)
        assert blob == bit_matrix_pack_levels(lev, bits)
        got = unpack_levels(blob, count, bits)
        assert got.tobytes() == bit_matrix_unpack_levels(blob, count, bits).tobytes()
        np.testing.assert_array_equal(got, lev)

    @pytest.mark.parametrize("bits", [17, 24, 31, 32, 33, 47, 53])
    def test_wide_levels_match_the_bit_matrix(self, bits):
        m = (1 << (bits - 1)) - 1
        lev = np.random.default_rng(bits).integers(-m, m + 1, size=203)
        lev[:2] = [-m, m]
        blob = pack_levels(lev, bits)
        assert blob == bit_matrix_pack_levels(lev, bits)
        np.testing.assert_array_equal(unpack_levels(blob, lev.size, bits), lev)

    def test_missing_trailing_bits_read_as_zeros(self):
        blob = pack_levels(np.arange(-7, 8), 6)
        got = unpack_levels(blob[:-2], 15, 6)
        assert got.tobytes() == bit_matrix_unpack_levels(blob[:-2], 15, 6).tobytes()

    @pytest.mark.parametrize("bits", range(2, 58))
    @given(groups=st.integers(0, 40), extra=st.integers(0, 7), short=st.integers(0, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_unpack_matches_the_gather(self, bits, groups, extra, short, seed):
        """Group-by-group unpacking reads what one gather of 8-byte windows
        reads: counts that stop inside a group, and data that stops short of
        the count (its missing bits zeros), from any bytes or buffer."""
        count = groups * (8 // math.gcd(bits, 8)) + extra
        data = np.random.default_rng(seed).bytes(max(0, -(-count * bits // 8) - short))
        got = unpack_levels(memoryview(data), count, bits)
        assert got.tobytes() == gather_unpack_levels(data, count, bits).tobytes()


class TestContainerIo:
    def test_write_read_write_byte_identical(self, tmp_path, tiny_models):
        am, _ = tiny_models
        c = quantize_model(am)
        p1, p2 = tmp_path / "a.qnn", tmp_path / "b.qnn"
        c.write(p1)
        ModelContainer.read(p1).write(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checksum_detects_corruption(self, tmp_path, tiny_models):
        am, _ = tiny_models
        quantize_model(am).write(tmp_path / "a.qnn")
        raw = bytearray((tmp_path / "a.qnn").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        (tmp_path / "bad.qnn").write_bytes(bytes(raw))
        with pytest.raises(ContainerError, match="checksum"):
            ModelContainer.read(tmp_path / "bad.qnn")

    def test_not_a_container_rejected(self, tmp_path):
        (tmp_path / "junk.qnn").write_bytes(b"hello world")
        with pytest.raises(ContainerError, match="not a model container"):
            ModelContainer.read(tmp_path / "junk.qnn")

    def test_levels_and_schemes_survive(self, tmp_path, tiny_models):
        am, _ = tiny_models
        c = quantize_model(am)
        c.write(tmp_path / "a.qnn")
        back = ModelContainer.read(tmp_path / "a.qnn")
        assert back.layer_dims == c.layer_dims
        assert back.alphabet == c.alphabet
        for q1, q2 in zip(c.qlayers, back.qlayers):
            np.testing.assert_array_equal(q1.wx_lev, q2.wx_lev)
            np.testing.assert_array_equal(q1.bias_lev, q2.bias_lev)
            assert q1.wx_exp == q2.wx_exp
            assert q1.gate_acc_exp == q2.gate_acc_exp
        np.testing.assert_array_equal(c.qoutput.w_lev, back.qoutput.w_lev)

    def test_float_shadows_survive(self, tmp_path, tiny_models):
        am, _ = tiny_models
        c = quantize_model(am, include_float=True)
        c.write(tmp_path / "a.qnn")
        back = ModelContainer.read(tmp_path / "a.qnn")
        assert back.has_float()
        np.testing.assert_allclose(
            back.float_layers[0].W_xi, am.layers[0].W_xi.astype(np.float32), atol=0
        )
        assert back.float_layers[0].quantized is back.qlayers[0]

    def test_no_shadow_container(self, tmp_path, tiny_models):
        am, _ = tiny_models
        c = quantize_model(am, include_float=False)
        c.write(tmp_path / "a.qnn")
        back = ModelContainer.read(tmp_path / "a.qnn")
        assert not back.has_float()
        with pytest.raises(ContainerError, match="float"):
            back.float_model()


class TestFloatShadow:
    """A read container keeps its float shadow as the file's float32 values
    and decodes it to the float64 model on first use, once."""

    @pytest.fixture(scope="class")
    def toy(self, tmp_path_factory):
        return gen_toy("tiny,frames=6,seed=11", tmp_path_factory.mktemp("shadow"))

    def read_pair(self, toy):
        return ModelContainer.read(toy["am"]), ModelContainer.read(toy["lm"])

    @pytest.mark.parametrize("mode", ["fixed", "hwsim"])
    def test_integer_decodes_leave_it_unbuilt(self, toy, mode):
        am, lm = self.read_pair(toy)
        feats, _ = read_feature_file(toy["features"])
        decode(am, lm, None, feats, RunConfig(mode=mode, beam_width=4))
        assert type(am._shadow) is dict and type(lm._shadow) is dict
        assert am.has_float() and lm.has_float()

    def test_a_float_decode_builds_it_once(self, toy, monkeypatch):
        built = []
        from_tensors = FloatModel.from_tensors
        monkeypatch.setattr(
            FloatModel, "from_tensors", lambda *a: built.append(a[0]) or from_tensors(*a)
        )
        am, lm = self.read_pair(toy)
        feats, _ = read_feature_file(toy["features"])
        first = decode(am, lm, None, feats, RunConfig(mode="float", beam_width=4))
        shadow = am.float_model()
        again = decode(am, lm, None, feats, RunConfig(mode="float", beam_width=4))
        assert built == ["am", "lm"]
        assert am.float_model() is shadow and isinstance(lm._shadow, FloatModel)
        assert (first.transcript, first.labels) == (again.transcript, again.labels)
        parts = zip([*shadow.layers, shadow.output], [*am.qlayers, am.qoutput])
        assert all(p.quantized is q for p, q in parts)

    def test_no_shadow_refuses_float_mode(self, tmp_path, capsys):
        toy = tmp_path / "toy"
        main_quantize(["--gen-toy", "tiny,frames=6,seed=11", "--out-dir", str(toy),
                       "--no-float-shadow"])
        capsys.readouterr()
        rc = main_decode(["--am", str(toy / "am.qnn"), "--features", str(toy / "stream.feat"),
                          "--mode", "float"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "asr-decode: container carries no float shadow copies\n"
        )


def formula_model(kind, d=7, hidden=(6, 5)):
    """A float model whose weights come from an integer formula, so that
    neither a random generator nor libm can move them; every value is a
    multiple of 1/64, exact in the container's f32 shadow."""
    alphabet = Alphabet(symbols=("A", "B", "C", " ", "\n"), delimiter=3, eos=4)
    start = 0

    def values(shape):
        nonlocal start
        n = int(np.prod(shape))
        k = np.arange(start, start + n)
        start += n
        return (((k * 37) % 101 - 50) / 64).reshape(shape)

    layers = []
    for h in hidden:
        layers.append(LstmLayerParams(**{n: values(s) for n, s in layer_shapes(d, h).items()}))
        d = h
    labels = alphabet.posterior_dim if kind == "am" else alphabet.n_labels
    output = OutputLayerParams(W=values((labels, d)), b=values((labels,)))
    return FloatModel(kind=kind, alphabet=alphabet, layers=layers, output=output)


class TestGoldenBytes:
    """The SHA-256 of containers written from formula_model: a change to
    the container layout, the step search or the rounding shows here."""

    @pytest.mark.parametrize("kind, weight_bits, bias_bits, include_float, digest", [
        ("am", 6, 6, True, "a097623640352bf2cfeadff4a141a024261df24b5e99337548b7fe72c751d5c5"),
        ("am", 6, 6, False, "7a99586c3775ba95debba0c7152448afb869567ad47daa5bbd7d144977de0b8e"),
        ("am", 12, 9, True, "c42d165c3794e9fa5e1313a1ae8a79fbd6fc6eb6c4ab6f44c214e4fc3bb32952"),
        ("am", 12, 9, False, "2e419dbfb4133d2b1f39b65f7df861a7f53592e4afb3820a55ca0926308be234"),
        ("lm", 6, 6, True, "aa7cad05038436682435930cda8bbe26909d3732970b8bf7217f652564594d7b"),
    ])
    def test_container_bytes_pinned(self, tmp_path, kind, weight_bits, bias_bits,
                                    include_float, digest):
        model = formula_model(kind)
        c = quantize_model(model, weight_bits=weight_bits, bias_bits=bias_bits,
                           include_float=include_float)
        c.write(tmp_path / "a.qnn")
        assert hashlib.sha256((tmp_path / "a.qnn").read_bytes()).hexdigest() == digest


class TestQuantizeModel:
    def test_dequantized_weights_within_half_step(self, tiny_models):
        am, _ = tiny_models
        c = quantize_model(am)
        q = c.qlayers[0]
        w = am.layers[0].W_xi
        back = q.wx_lev[: q.hidden] * 2.0 ** q.wx_exp[0]
        max_level = (1 << (q.weight_bits - 1)) - 1
        step = 2.0 ** q.wx_exp[0]
        unsaturated = np.abs(w) <= max_level * step
        assert np.all(np.abs((w - back))[unsaturated] <= step / 2 + 1e-12)

    def test_requantization_is_fixed_point(self, tiny_models):
        """Quantizing the dequantized model reproduces the same levels."""
        from qasr.container import FloatModel

        am, _ = tiny_models
        c1 = quantize_model(am)
        deq_layers = []
        for p, q in zip(am.layers, c1.qlayers):
            H = q.hidden
            kw = {}
            for g, n in enumerate(("W_xi", "W_xf", "W_xo", "W_xc")):
                kw[n] = q.wx_lev[g * H : (g + 1) * H] * 2.0 ** q.wx_exp[g]
            for g, n in enumerate(("W_hi", "W_hf", "W_ho", "W_hc")):
                kw[n] = q.wh_lev[g * H : (g + 1) * H] * 2.0 ** q.wh_exp[g]
            for g, n in enumerate(("w_ci", "w_cf", "w_co")):
                kw[n] = q.peep_lev[g] * 2.0 ** q.peep_exp[g]
            for g, n in enumerate(("b_i", "b_f", "b_o", "b_c")):
                kw[n] = q.bias_lev[g] * 2.0 ** q.bias_exp[g]
            deq_layers.append(type(p)(**kw))
        deq_out = type(am.output)(
            W=c1.qoutput.w_lev * 2.0**c1.qoutput.w_exp,
            b=c1.qoutput.b_lev * 2.0**c1.qoutput.b_exp,
        )
        deq = FloatModel(kind="am", alphabet=am.alphabet, layers=deq_layers, output=deq_out)
        c2 = quantize_model(deq)
        for q1, q2 in zip(c1.qlayers, c2.qlayers):
            np.testing.assert_array_equal(q1.wx_lev, q2.wx_lev)
            np.testing.assert_array_equal(q1.wh_lev, q2.wh_lev)

    def test_lm_one_hot_scheme_is_exact(self, tiny_models):
        _, lm = tiny_models
        c = quantize_model(lm)
        step = c.feature_scheme.step
        level = round(1.0 / step)
        assert level * step == 1.0
        assert level <= c.feature_scheme.max_level

    def test_output_dim_checked_against_alphabet(self, tiny_models):
        from qasr.container import FloatModel

        am, _ = tiny_models
        bad = FloatModel(kind="lm", alphabet=am.alphabet, layers=am.layers, output=am.output)
        with pytest.raises(ContainerError, match="alphabet"):
            quantize_model(bad)


def assert_same_format(a, b):
    assert (a.sig_in, a.sig_out, a.cell, a.pre) == (b.sig_in, b.sig_out, b.cell, b.pre)
    for la, lb in ((a.lut_sigmoid, b.lut_sigmoid), (a.lut_tanh, b.lut_tanh)):
        assert (la.kind, la.lo, la.hi, la.out_exp) == (lb.kind, lb.lo, lb.hi, lb.out_exp)
        np.testing.assert_array_equal(la.entries, lb.entries)


class TestFormats:
    """rnn.FORMATS holds every format default and rnn.layer_formats is the
    one function that builds a stack's layer formats."""

    @pytest.mark.parametrize("read_back", [False, True])
    def test_layers_share_one_table_pair_on_layer_formats(self, tmp_path, tiny_models,
                                                          read_back):
        c = quantize_model(tiny_models[0])
        if read_back:
            c.write(tmp_path / "a.qnn")
            c = ModelContainer.read(tmp_path / "a.qnn")
        fmts = [q.fmt for q in c.qlayers]
        assert len(fmts) == 2
        for f in fmts:
            assert f.lut_sigmoid is fmts[0].lut_sigmoid and f.lut_tanh is fmts[0].lut_tanh
        for got, want in zip(fmts, layer_formats(c.formats, len(fmts)), strict=True):
            assert_same_format(got, want)
        assert c.qoutput.sig_in == fmts[-1].sig_out

    @pytest.mark.parametrize("kind", ["am", "lm"])
    def test_default_widths_write_FORMATS(self, tmp_path, tiny_models, kind):
        model = tiny_models[kind == "lm"]
        quantize_model(model).write(tmp_path / "a.qnn")
        formats = ModelContainer.read(tmp_path / "a.qnn").formats
        sig_in_exp = -6 if kind == "lm" else FORMATS["sig_in_exp"]
        assert formats == dict(FORMATS, sig_in_exp=sig_in_exp)

    def test_every_formats_key_is_checked_and_the_defaults_pass(self):
        assert list(_FORMAT_RANGES) == list(FORMATS)
        for sig_in_exp in (FORMATS["sig_in_exp"], ONE_HOT_SIG_IN_EXP):
            layer_formats(dict(FORMATS, sig_in_exp=sig_in_exp), 2)
        layer_formats(dict(FORMATS, signal_bits=np.int64(8), lut_hi=np.float64(8.0)), 1)

    @pytest.mark.parametrize("edit, named", [
        ({"sig_exp": True}, "formats.sig_exp True is not an integer in -1074..1023"),
        ({"cell_bits": 54}, "formats.cell_bits 54 is not an integer in 2..53"),
        ({"sig_exp": 10**400}, "formats.sig_exp 1000"),
        ({"act_exp": 0}, "formats.act_exp 0 is not an integer in -1074..-1"),
        ({"lut_resolution": 2**17}, "formats.lut_resolution 131072 is not an integer in 2..65536"),
        ({"lut_hi": float("nan")}, "formats.lut_hi nan is not a number in"),
        ({"lut_hi": 10**400}, "formats.lut_hi 1000"),
        ({"lut_lo": "-8"}, "formats.lut_lo '-8' is not a number in"),
        ({"lut_hi": -8.0}, "formats.lut_lo -8.0 is not below formats.lut_hi -8.0"),
        ({"pre_exp": 4}, "formats.pre_exp 4 makes one pre-activation step span"),
    ])
    def test_layer_formats_names_a_bad_key(self, edit, named):
        with pytest.raises(ValueError) as err:
            layer_formats(dict(FORMATS, **edit), 1)
        assert str(err.value).startswith(named)

    def test_quantize_flags_default_to_FORMATS(self):
        ap = quantize_parser()
        widths = {a.dest: a.default for a in ap._actions if a.dest in FORMATS}
        assert widths == {
            "weight_bits": FORMATS["weight_bits"],
            "bias_bits": None,  # the weight width, as FORMATS has it
            "signal_bits": FORMATS["signal_bits"],
            "cell_bits": FORMATS["cell_bits"],
        }
        assert FORMATS["bias_bits"] == FORMATS["weight_bits"]
        text = " ".join(ap.format_help().split())
        for key in ("weight_bits", "signal_bits", "cell_bits"):
            assert f"{key.split('_')[0]} level width (default {FORMATS[key]})" in text


@pytest.mark.parametrize("flag, named", [
    ("--signal-bits", "formats.signal_bits 1 is not an integer in 2..53"),
    ("--cell-bits", "formats.cell_bits 1 is not an integer in 2..53"),
])
def test_quantize_width_below_2_bits_exits_2_naming_the_key(tmp_path, tiny_models, capsys,
                                                            flag, named):
    save_float_model(tiny_models[0], tmp_path / "am.npz")
    rc = main_quantize(["--float-model", str(tmp_path / "am.npz"), "--out",
                        str(tmp_path / "am.qnn"), flag, "1"])
    assert rc == 2
    assert named in capsys.readouterr().err


def test_float_model_npz_round_trip(tmp_path, tiny_models):
    am, _ = tiny_models
    p = tmp_path / "am.npz"
    save_float_model(am, p)
    back = load_float_model(p)
    assert back.kind == "am"
    assert back.alphabet == am.alphabet
    np.testing.assert_array_equal(back.layers[0].W_xi, am.layers[0].W_xi)
    np.testing.assert_array_equal(back.output.b, am.output.b)


def drop_meta_key(key):
    def edit(arrays):
        meta = json.loads(str(arrays["_meta"]))
        del meta[key]
        arrays["_meta"] = json.dumps(meta)

    return edit


def set_meta(key, value):
    def edit(arrays):
        meta = json.loads(str(arrays["_meta"]))
        meta[key] = value
        arrays["_meta"] = json.dumps(meta)

    return edit


def put(name, cut=None, value=None):
    """An edit of a float model's arrays: slice one array by cut, or set
    one of its values."""
    def edit(arrays):
        arr = arrays[name][cut] if cut is not None else arrays[name].copy()
        if value is not None:
            arr.flat[3] = value
        arrays[name] = arr

    return edit


class TestFloatModelFile:
    """A bad float model file makes asr-quantize exit 2 naming the file
    and the tensor or _meta key (the tiny AM: 12 inputs, two 16-wide
    layers, 6 outputs)."""

    @pytest.mark.parametrize("edit, named", [
        (lambda a: a.pop("layer0.W_xi"), r"tensor layer0\.W_xi is missing"),
        (lambda a: a.pop("output.b"), r"tensor output\.b is missing"),
        (lambda a: a.pop("_meta"), r"_meta is missing"),
        (drop_meta_key("symbols"), r"_meta is missing key 'symbols'"),
        (put("layer0.W_xi", np.s_[:, :11]),
         r"tensor layer0\.W_xi has shape \[16, 11\], .* makes it \[16, 12\]"),
        (put("layer0.W_xi", np.s_[:15]),
         r"tensor layer0\.W_xi has shape \[15, 12\], .* makes it \[16, 12\]"),
        (put("layer1.b_o", np.s_[:15]), r"tensor layer1\.b_o has shape \[15\], .* makes it \[16\]"),
        (put("output.W", np.s_[:, :8]),
         r"tensor output\.W has shape \[6, 8\], .* makes it \[6, 16\]"),
        (set_meta("symbols", 5), r"_meta symbols 5 is not a list of strings"),
        (set_meta("symbols", ["A", 1]), r"_meta symbols \['A', 1\] is not a list of strings"),
        (set_meta("symbols", ["A", "A", "B", " ", "\n"]), r"_meta symbols hold duplicates"),
        (set_meta("delimiter", "3"), r"_meta delimiter '3' is not an index or null"),
        (set_meta("eos", 9), r"_meta eos index out of range"),
        (set_meta("kind", "xx"), r"_meta kind 'xx' is not 'am' or 'lm'"),
        (lambda a: a.update({"layer0.b_i": np.full(16, "a")}),
         r"tensor layer0\.b_i holds <U1 values, not real numbers"),
    ])
    def test_bad_file_exits_2_naming_it(self, tmp_path, tiny_models, capsys, edit, named):
        bad = self.edited(tmp_path, tiny_models[0], edit)
        assert main_quantize(["--float-model", str(bad), "--out", str(tmp_path / "q")]) == 2
        assert re.search(rf"{re.escape(str(bad))}: {named}", capsys.readouterr().err)

    @pytest.mark.parametrize("name, value", [("layer0.b_i", np.inf), ("output.W", np.nan)])
    def test_non_finite_weight_exits_2_naming_it(self, tmp_path, tiny_models, capsys, name, value):
        bad = self.edited(tmp_path, tiny_models[0], put(name, value=value))
        assert main_quantize(["--float-model", str(bad), "--out", str(tmp_path / "q")]) == 2
        assert f"tensor {name} holds the non-finite value {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"", b"hello world", b"PK\x03\x04 truncated", "npy"])
    def test_not_an_npz_archive_exits_2_naming_the_file(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.npz"
        if content == "npy":
            np.save(tmp_path / "one.npy", np.zeros(3))
            content = (tmp_path / "one.npy").read_bytes()
        bad.write_bytes(content)
        assert main_quantize(["--float-model", str(bad), "--out", str(tmp_path / "q")]) == 2
        assert f"{bad}: not an .npz float model file" in capsys.readouterr().err

    @pytest.mark.parametrize("member", [b"junk", b"\x93NUMPY\x01\x00\x02\x00{}"])
    def test_unreadable_array_exits_2_naming_it(self, tmp_path, tiny_models, capsys, member):
        save_float_model(tiny_models[0], tmp_path / "good.npz")
        bad = tmp_path / "bad.npz"
        with zipfile.ZipFile(tmp_path / "good.npz") as src, zipfile.ZipFile(bad, "w") as dst:
            for item in src.namelist():
                dst.writestr(item, member if item == "layer0.b_i.npy" else src.read(item))
        assert main_quantize(["--float-model", str(bad), "--out", str(tmp_path / "q")]) == 2
        assert f"{bad}: array layer0.b_i cannot be read" in capsys.readouterr().err

    def edited(self, tmp_path, model, edit):
        save_float_model(model, tmp_path / "good.npz")
        with np.load(tmp_path / "good.npz") as z:
            arrays = dict(z)
        edit(arrays)
        np.savez(tmp_path / "bad.npz", **arrays)
        return tmp_path / "bad.npz"


class TestHeaderChecks:
    @pytest.fixture
    def good(self, tmp_path, tiny_models):
        quantize_model(tiny_models[0]).write(tmp_path / "a.qnn")
        return tmp_path / "a.qnn"

    def read_edited(self, good, edit):
        rewrite_header(good, good.with_name("bad.qnn"), edit)
        return ModelContainer.read(good.with_name("bad.qnn"))

    def test_rewrite_without_edit_reads(self, good):
        c = self.read_edited(good, lambda h: None)
        assert c.kind == "am"

    @pytest.mark.parametrize("key", ["kind", "alphabet", "dims", "formats", "tensors"])
    def test_missing_key_named(self, good, key):
        with pytest.raises(ContainerError, match=f"missing key '{key}'"):
            self.read_edited(good, lambda h: h.pop(key))

    def test_missing_format_key_named(self, good):
        with pytest.raises(ContainerError, match="formats.cell_exp"):
            self.read_edited(good, lambda h: h["formats"].pop("cell_exp"))

    def test_missing_tensor_named(self, good):
        def drop(h):
            h["tensors"] = [r for r in h["tensors"] if r["name"] != "output.b"]

        with pytest.raises(ContainerError, match="tensor output.b is missing"):
            self.read_edited(good, drop)

    def test_tensor_outside_payload_named(self, good):
        def move(h):
            h["tensors"][-1]["offset"] += 1

        with pytest.raises(ContainerError, match="outside the .*-byte payload"):
            self.read_edited(good, move)

    @pytest.mark.parametrize("field, value", [("offset", "0"), ("nbytes", -1), ("shape", [2, -1])])
    def test_tensor_sizes_must_be_non_negative_integers(self, good, field, value):
        def spoil(h):
            h["tensors"][0][field] = value

        with pytest.raises(ContainerError, match="must be non-negative integers"):
            self.read_edited(good, spoil)

    def test_byte_count_checked_against_bits(self, good):
        def shrink(h):
            rec = next(r for r in h["tensors"] if r["name"] == "layer0.W_xi")
            rec["nbytes"] -= 1

        with pytest.raises(ContainerError, match="layer0.W_xi: .* take .* bytes, the header says"):
            self.read_edited(good, shrink)

    def test_level_widths_must_match_formats(self, tmp_path, tiny_models):
        # levels of 12 bits reach 2047; a header claiming 6-bit weights would
        # choose the float32 weights and the range guards for 31
        quantize_model(tiny_models[0], weight_bits=12).write(tmp_path / "w12.qnn")

        def claim_6_bits(h):
            h["formats"]["weight_bits"] = 6

        match = r"tensor layer0\.W_xi holds 12-bit levels, formats\.weight_bits is 6"
        with pytest.raises(ContainerError, match=match):
            self.read_edited(tmp_path / "w12.qnn", claim_6_bits)

    def test_bias_widths_must_match_formats(self, good):
        def claim_8_bits(h):
            h["formats"]["bias_bits"] = 8

        with pytest.raises(ContainerError, match=r"layer0\.b_i holds 6-bit levels, formats\.bias_bits"):
            self.read_edited(good, claim_8_bits)

    @pytest.mark.parametrize("name", ["layer0.W_xf", "output.W", "float.layer0.W_xo", "float.output.W"])
    def test_transposed_tensor_named(self, good, name):
        def transpose(h):
            next(r for r in h["tensors"] if r["name"] == name)["shape"].reverse()

        with pytest.raises(ContainerError, match=rf"tensor {name} has shape"):
            self.read_edited(good, transpose)

    def test_float_shadow_is_all_or_nothing(self, good):
        def drop(h):
            h["tensors"] = [r for r in h["tensors"] if r["name"] != "float.layer0.W_xi"]

        with pytest.raises(ContainerError, match=r"tensor float\.layer0\.W_xi is missing"):
            self.read_edited(good, drop)

    def test_float_shadow_is_f32(self, good):
        def as_levels(h):
            rec = next(r for r in h["tensors"] if r["name"] == "float.layer1.b_c")
            rec["dtype"], rec["bits"] = "levels", 32  # the same byte count

        with pytest.raises(ContainerError, match=r"float\.layer1\.b_c holds 32-bit levels, .* f32"):
            self.read_edited(good, as_levels)

    def test_hidden_width_checked_against_the_tensors(self, good):
        def widen(h):
            h["dims"]["hidden"][1] += 1

        with pytest.raises(ContainerError, match=r"tensor layer1\.W_xi has shape \[16, 16\]"):
            self.read_edited(good, widen)

    def test_tensors_beyond_dims_hidden_refused(self, good):
        with pytest.raises(ContainerError, match=r"tensor layer1\.W_xi lies beyond the 1 layers"):
            self.read_edited(good, lambda h: h["dims"]["hidden"].pop())

    @pytest.mark.parametrize("hidden, named", [
        ([], "is not a non-empty list"),
        (16, "is not a non-empty list"),
        ([16, 0], r"layer1\.W_xi has shape \[16, 16\], dims\.hidden \[16, 0\] makes it \[0, 16\]"),
        ([16, "16"], r"layer1\.W_xi has shape \[16, 16\], dims\.hidden \[16, '16'\]"),
    ])
    def test_hidden_must_list_positive_widths(self, good, hidden, named):
        def spoil(h):
            h["dims"]["hidden"] = hidden

        with pytest.raises(ContainerError, match=named):
            self.read_edited(good, spoil)
