"""The benchmark's own checks: seeded inputs repeat, tracing changes no
output, and the metric names match BENCHMARK.json.

Run with: python -m pytest perfbench
"""

import dataclasses
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from perfbench import inputs
from qasr.container import quantize_model
from qasr.engine import RunConfig, decode
from qasr.wordlm import parse_arpa
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, Outcome, _make_pool, run

from .conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# one short hwsim stream keeps the traced run, the cycle checks and the
# fixed-mode gate in the test at a few seconds
SMALL_BUSY = dataclasses.replace(WORKLOADS["busy-hwsim-b128"], pool=1, frames=120)


def test_inputs_repeat_for_a_seed(tmp_path):
    assert inputs.arpa_text(5) == inputs.arpa_text(5)
    assert inputs.arpa_text(5) != inputs.arpa_text(6)
    assert np.array_equal(inputs.command_audio(5, 2), inputs.command_audio(5, 2))
    assert not np.array_equal(inputs.command_audio(5, 2), inputs.command_audio(6, 2))
    assert np.array_equal(inputs.busy_features(5, 1, 50, 123), inputs.busy_features(5, 1, 50, 123))
    for name in ("wav-fixed-b8", "busy-hwsim-b128"):
        w = dataclasses.replace(WORKLOADS[name], pool=2, frames=50)
        files = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir(exist_ok=True)
            pool = _make_pool(w, 5, tmp_path / sub, 123, Outcome())
            files.append([u.path.read_bytes() for u in pool])
        assert files[0] == files[1]


@pytest.fixture(scope="module")
def busy_runs(tmp_path_factory):
    out = {}
    for trace in (False, True):
        work = tmp_path_factory.mktemp(f"trace{int(trace)}")
        out[trace] = run(SMALL_BUSY, seed=3, seconds=0.0, trace=trace, work=work)
    return out


def test_traced_and_untraced_digests_are_equal(busy_runs):
    plain, traced = busy_runs[False], busy_runs[True]
    assert plain.failed == 0, plain.failures
    assert traced.failed == 0, traced.failures
    assert traced.info["digest"] == plain.info["digest"]
    assert traced.info["trace.missing_patch_points"] == []


def test_self_times_add_up_to_the_traced_wall(busy_runs):
    info = busy_runs[True].info
    assert info["trace.self_sum_s"] == pytest.approx(info["trace.utterance_wall_s"], rel=1e-9)
    assert {"hwsim.am", "hwsim.lm", "decoder.step", "decode"} <= set(info["trace.shares"])


def test_cycle_metrics_follow_the_model(busy_runs):
    layer = busy_runs[True].metrics
    assert layer["hwsim.cycles.am_per_frame"] == 2806
    assert layer["hwsim.cycles.agree"] >= 1


def test_metric_names_match_the_spec(busy_runs):
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(busy_runs[False].metrics) == set(END_TO_END)
    assert set(busy_runs[True].metrics) == set(PER_LAYER)


def test_command_prints_the_spec_metrics_last():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "quantize-small",
           "--seed", "2", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())


# A known decoder defect, kept visible here until decoder.py is fixed.
# BeamSearch.step deactivates the pruned nodes before it flags the survivors
# active, so the dead-leaf trim in _deactivate can unlink a survivor that was
# an inactive interior node; deactivating that node later raises KeyError.
# Busy stream 5 of seed 834537396 hits it in float mode. Once the decoder is
# fixed this test passes, strict xfail reports that, and the mark goes.
@pytest.mark.xfail(raises=KeyError, strict=True,
                   reason="BeamSearch.step trims survivors not yet flagged active")
def test_busy_stream_that_hits_the_deactivate_defect_decodes():
    w, seed = WORKLOADS["busy-float-b128"], 834537396
    am_f, lm_f = inputs.toy_models(w.toy)
    arpa = parse_arpa(io.StringIO(inputs.arpa_text(seed)))
    feats = inputs.busy_features(seed, 5, w.frames, am_f.input_dim)
    decode(quantize_model(am_f), quantize_model(lm_f), arpa, feats,
           RunConfig(mode=w.mode, beam_width=w.beam))
