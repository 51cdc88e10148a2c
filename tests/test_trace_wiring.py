"""The benchmark's span tracer finds every callable it patches, and a
benchmark workload runs through qasr as the benchmark calls it.

The tier-1 suite does not collect perfbench/, so without these tests a
rename in qasr.engine or qasr.hwsim, or a changed setting, could break the
benchmark run while every test here passes."""

import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, run  # noqa: E402

from qasr import engine, frontend  # noqa: E402
from qasr.container import quantize_model  # noqa: E402
from qasr.engine import RnnCharLm, RunConfig, decode  # noqa: E402
from qasr.toy import ToySpec, build_toy_models, toy_arpa_text  # noqa: E402
from qasr.wordlm import parse_arpa  # noqa: E402


def test_tracer_patches_every_point_and_restores_them():
    original = RnnCharLm.__dict__["advance_batch"]
    tracer = Tracer()
    try:
        assert tracer.install() == []
        assert RnnCharLm.__dict__["advance_batch"] is not original
    finally:
        tracer.uninstall()
    assert RnnCharLm.__dict__["advance_batch"] is original


def test_frame_geometry_has_one_home():
    """The benchmark keeps its own copies of the sample and frame rates to
    size its inputs; they, and the engine's report, follow the frontend."""
    assert frontend.FRAME_RATE == frontend.SAMPLE_RATE / frontend.HOP == 100.0
    assert engine.FRAME_RATE is frontend.FRAME_RATE
    assert (inputs.SAMPLE_RATE, inputs.FRAME_RATE) == (frontend.SAMPLE_RATE, frontend.FRAME_RATE)


def test_quantize_workload_runs_clean_traced_or_not(tmp_path):
    """The benchmark's quantize workload, one request untraced and one
    traced, through the calls into qasr the benchmark makes."""
    plain, traced = (run(WORKLOADS["quantize-small"], 1, 0.0, t, tmp_path) for t in (False, True))
    assert (plain.failed, traced.failed) == (0, 0), plain.failures + traced.failures
    assert plain.info["digest"] == traced.info["digest"]
    assert plain.metrics["sim.cycles_per_audio_s"] == 319164


def test_wav_workload_runs_clean_traced(tmp_path):
    """The WAV workload, traced: the tracer finds every patch point, and the
    run's own check that each item's traced digest equals its untraced one
    passes with every other check."""
    out = run(WORKLOADS["wav-fixed-b8"], 1, 0.0, True, tmp_path)
    assert out.info["trace.missing_patch_points"] == []
    assert "traced and untraced output digests differ" not in out.failures
    assert out.failed == 0, out.failures


def traced_busy_decode(mode):
    """A short decode at beam 128 with both LMs, traced as the busy
    workloads are, after the same decode untraced: the tracer and the
    decode's frame count. Tracing leaves the transcript as it is."""
    spec = ToySpec("tiny", frames=100, seed=9, blank_bias=0.0, out_gain=3.0)
    am, lm = (quantize_model(m) for m in build_toy_models(spec))
    arpa = parse_arpa(io.StringIO(toy_arpa_text(spec.alphabet)))
    feats = inputs.busy_features(9, 0, spec.frames, am.input_dim)
    cfg = RunConfig(mode=mode, beam_width=128)
    plain = decode(am, lm, arpa, feats, cfg)
    tracer = Tracer()
    try:
        assert tracer.install() == []
        traced = decode(am, lm, arpa, feats, cfg)
    finally:
        tracer.uninstall()
    assert (traced.transcript, traced.labels) == (plain.transcript, plain.labels)
    return tracer, spec.frames


def test_busy_hwsim_decode_records_every_caller_span():
    """A traced hwsim decode (traced_busy_decode): the search, the LM
    advance with its layer steps and its context memory, and the word LM
    each record spans, so the benchmark's per-layer split of the caller
    sees every part."""
    tracer, frames = traced_busy_decode("hwsim")
    spans = set(tracer.names)
    for name in ("decoder.step", "charlm.advance_batch", "hwsim.simulate_layer",
                 "hwsim.context", "wordlm.delta"):
        assert name in spans, name
    assert tracer.names.count("decoder.step") == frames


def test_busy_float_decode_records_the_lm_layer_steps():
    """A traced float decode (traced_busy_decode): the LM advance and its
    layer steps record spans, so the benchmark's rnn.lm split sees the
    float LM's steps through their patch point, engine.lstm_step."""
    tracer, frames = traced_busy_decode("float")
    spans = set(tracer.names)
    for name in ("decoder.step", "charlm.advance_batch", "rnn.lstm_step"):
        assert name in spans, name
    assert tracer.names.count("decoder.step") == frames
