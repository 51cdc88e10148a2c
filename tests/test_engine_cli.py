"""End-to-end engine and CLI tests on generated toy models."""

import io
from pathlib import Path

import numpy as np
import pytest

from qasr.cli import main_decode, main_quantize
from qasr.container import ContainerError, ModelContainer
from qasr.engine import RunConfig, decode, read_report, write_report
from qasr.frontend import read_feature_file, write_feature_file
from qasr.hwsim import layer_cycles, output_tile_cycles, realtime_budget
from qasr.toy import ToySpec, gen_toy, toy_arpa_text
from qasr.wordlm import parse_arpa_file

from helpers import rewrite_header


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    paths = gen_toy("tiny,frames=80,seed=9", out)
    return {
        "paths": paths,
        "am": ModelContainer.read(paths["am"]),
        "lm": ModelContainer.read(paths["lm"]),
        "arpa": parse_arpa_file(paths["arpa"]),
        "features": read_feature_file(paths["features"])[0],
    }


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


class TestReports:
    def test_cycle_totals_sum(self, toy):
        rep = run(toy, "hwsim").report
        assert rep["cycles.total"] == (
            rep["am.lstm_cycles.total"]
            + rep["am.output_tile.total"]
            + rep["lm.lstm_cycles.total"]
            + rep["lm.output_tile.total"]
        )
        assert rep["am.lstm_cycles.total"] == rep["frames"] * rep["am.lstm_cycles.per_invocation"]
        assert rep["lm.lstm_cycles.total"] == rep["lm.advances"] * rep["lm.lstm_cycles.per_advance"]

    def test_hwsim_measured_matches_model(self, toy):
        rep = run(toy, "hwsim").report
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

    def test_context_memory_bounded_by_beam(self, toy):
        rep = run(toy, "hwsim", beam=8).report
        assert rep["hw.context.peak_slots"] <= 8 + rep["beam.width"]
        assert rep["beam.mean_active"] <= 8

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

    def test_container_missing_header_key_exits_2(self, tmp_path, capsys):
        paths = gen_toy("tiny,frames=6,seed=11", tmp_path / "toy")
        bad = tmp_path / "bad.qnn"
        rewrite_header(Path(paths["am"]), bad, lambda h: h.pop("formats"))
        capsys.readouterr()
        rc = main_decode(["--am", str(bad), "--features", paths["features"]])
        assert rc == 2
        assert "missing key 'formats'" in capsys.readouterr().err

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
