"""The benchmark's workloads: seeded inputs, set-up, a closed loop with one
client, the correctness gate and the metrics.

Each workload runs in its own process. One client sends its next request
only when the previous one completed (a closed loop with one client), so
there is no arrival schedule: the engine decodes one stream per call, and
an open-loop workload waits for a streaming or batched API.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from qasr.container import ModelContainer, load_float_model, quantize_model, save_float_model
from qasr.engine import RunConfig, decode
from qasr.frontend import extract_features, read_feature_file, read_wav, write_feature_file
from qasr.wordlm import parse_arpa_file

from . import inputs
from .trace import Tracer

# the paper's small acoustic model on the default dual 256-PE array
AM_CYCLES_PER_FRAME = 2806
BUDGET_CYCLES_PER_SECOND = 6409240

SETUP_REPS = 5  # set-up is timed this many times per run; the median is reported
QUANTIZE_REPS = 5  # decode workloads time this many quantizations of their models
WARMUP_FRAMES = 50
# rtf.tail is this percentile at every workload, so it means the same on
# every commit; the count of requests beyond it is recorded with it
TAIL_PCT = 75.0


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # decode mode; quantize-small decodes its read-back models in it
    beam: int
    source: str  # "wav" | "features" | "quantize"
    toy: dict  # ToySpec overrides of the `small` preset
    pool: int  # distinct utterances the client cycles through
    frames: int = 0  # stream length for feature sources


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wav-fixed-b8",
            mode="fixed",
            beam=8,
            source="wav",
            toy={},
            pool=8,
        ),
        Workload(
            name="busy-hwsim-b128",
            mode="hwsim",
            beam=128,
            source="features",
            toy={"blank_bias": 0.0, "out_gain": 3.0},
            pool=6,
            frames=500,
        ),
        Workload(
            name="busy-float-b128",
            mode="float",
            beam=128,
            source="features",
            toy={"blank_bias": 0.0, "out_gain": 3.0},
            pool=6,
            frames=500,
        ),
        Workload(
            name="quantize-small",
            mode="fixed",
            beam=8,
            source="quantize",
            toy={},
            pool=1,
            frames=100,
        ),
    )
}

END_TO_END = {
    "rtf.p50": "s/s",
    "rtf.tail": "s/s",
    "throughput.audio_s_per_s": "audio_s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim.cycles_per_audio_s": "cycles/s",
    "quantize_s.p50": "s",
}

PER_LAYER = {
    "frontend.ms_per_audio_s": "ms/audio_s",
    "container.read_ms": "ms",
    "wordlm.parse_ms": "ms",
    "container.write_ms": "ms",
    "quant.search_step_ms": "ms",
    "quant.search_step_calls": "count",
    "rnn.am.us_per_frame": "us/frame",
    "rnn.lm.us_per_advance": "us/advance",
    "hwsim.am.us_per_frame": "us/frame",
    "hwsim.lm.us_per_advance": "us/advance",
    "hwsim.context.us_per_advance": "us/advance",
    "hwsim.context.ops": "ops/frame",
    "hwsim.context.peak_slots": "count",
    "hwsim.cycles.am_per_frame": "cycles/frame",
    "hwsim.cycles.lm_per_advance": "cycles/advance",
    "hwsim.cycles.agree": "count",
    "charlm.self_us_per_advance": "us/advance",
    "decoder.step_self_us_per_frame": "us/frame",
    "decoder.lm_batch.mean": "count",
    "decoder.lm_batch.max": "count",
    "decoder.lm_advances_per_frame": "1/frame",
    "decoder.mean_active": "count",
    "decoder.prunes.width": "1/frame",
    "decoder.prunes.depth": "1/frame",
    "wordlm.rescore_calls": "1/frame",
    "wordlm.rescore_us_per_frame": "us/frame",
    "engine.self_us_per_frame": "us/frame",
    "trace.overhead_pct": "%",
}


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> value
    info: dict = field(default_factory=dict)  # details for the results file
    failures: list = field(default_factory=list)
    tracer: Optional[Tracer] = None

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class Sample:
    """One request of the closed loop."""

    digest: str
    wall_s: float  # the whole request
    decode_s: float  # frontend plus decode, the numerator of the real-time factor
    audio_s: float
    result: object  # DecodeResult
    bad: list  # checks the request failed
    quantize_s: float = 0.0
    start: float = 0.0  # perf_counter when the request was sent


class SpeedProbe:
    """Machine-speed reference for the timed sections.

    On a shared two-core virtual machine the same code runs up to 10 %
    faster or slower from one 10-second window to the next, and the speed
    moves within seconds. A fixed kernel of interpreter work, small numpy
    calls and matrix-vector products over a working set the size of the
    models (16 MB) is timed before the first and after every timed
    operation. An operation's wall time times REFERENCE_S / (the
    mean of the probes just before and just after it) is its time on a
    machine running at the reference speed. The benchmark reports those
    and records the raw wall times next to them. Over ten seeds of
    wav-fixed-b8 this cut the quartile spread of rtf.p50 from 22 % raw to
    3 %. Wider windows of probes tracked the speed worse.
    """

    REFERENCE_S = 0.03  # the kernel's median on the 2-core Xeon box this was tuned on

    def __init__(self):
        rng = np.random.default_rng(0)
        self._ws = [rng.standard_normal((1024, 256)) for _ in range(8)]
        self._x = rng.standard_normal(256)
        self.samples = []  # (perf_counter at the middle, seconds)
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(80000):
            table[i & 1023] = acc
            acc += i * i
        for _ in range(15):
            for w in self._ws:
                y = w @ self._x
        for _ in range(300):
            np.clip(np.round(y * 0.5), -127.0, 127.0)
        t1 = time.perf_counter()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))

    def factor(self, start: float, end: float) -> float:
        """Scale for an operation that ran from start to end (perf_counter)."""
        before = [d for t, d in self.samples if t < start][-1:]
        after = [d for t, d in self.samples if t > end][:1]
        near = before + after
        return self.REFERENCE_S / (sum(near) / len(near))

    def scaled(self, timings) -> list:
        """[(start, seconds)] -> seconds at the reference speed."""
        return [dt * self.factor(t0, t0 + dt) for t0, dt in timings]


@contextmanager
def span(tracer, name: str):
    if tracer is None:
        yield
        return
    idx = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(idx)


def report_digest(result) -> str:
    """Hash of transcript, labels and the report without its wall time."""
    report = {k: v for k, v in result.report.items() if k != "wall.seconds"}
    blob = json.dumps(
        [result.transcript, [int(x) for x in result.labels], report],
        sort_keys=True,
        default=float,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def report_problems(result, mode: str, alphabet) -> list:
    """The report identities and transcript invariants a result breaks."""
    r = result.report
    bad = []
    if result.transcript != alphabet.text(result.labels):
        bad.append("transcript does not spell the labels")
    if r["am.lstm_cycles.total"] != r["frames"] * AM_CYCLES_PER_FRAME:
        bad.append(f"am.lstm_cycles.total != frames x {AM_CYCLES_PER_FRAME}")
    if r["budget.cycles_per_second"] != BUDGET_CYCLES_PER_SECOND:
        bad.append(f"budget.cycles_per_second != {BUDGET_CYCLES_PER_SECOND}")
    parts = ("am.lstm_cycles.total", "am.output_tile.total", "lm.lstm_cycles.total",
             "lm.output_tile.total")
    if r["cycles.total"] != sum(r[k] for k in parts):
        bad.append("cycles.total is not the sum of its parts")
    if mode == "hwsim":
        for measured, model in MEASURED_VS_MODEL:
            if r.get(measured) != r[model]:
                bad.append(f"{measured} != {model}")
    return bad


MEASURED_VS_MODEL = (
    ("hw.am.cycles.measured", "am.lstm_cycles.total"),
    ("hw.am.output_tile.measured", "am.output_tile.total"),
    ("hw.lm.cycles.measured", "lm.lstm_cycles.total"),
    ("hw.lm.output_tile.measured", "lm.output_tile.total"),
)


def raised(exc: Exception) -> str:
    """The exception and the function it came from, for the failure list."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} in {Path(where.filename).name}:{where.lineno} {where.name}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Inputs and set-up
# ---------------------------------------------------------------------------


@dataclass
class Utterance:
    path: Path
    audio_s: float


def _quantize_pair(am_f, lm_f, tracer):
    with span(tracer, "quantize"):
        return quantize_model(am_f), quantize_model(lm_f)


def _write(container, path, tracer):
    with span(tracer, "container.write"):
        container.write(path)


def _read(path, tracer):
    with span(tracer, "container.read"):
        return ModelContainer.read(path)


def _make_pool(w: Workload, seed: int, work: Path, input_dim: int, out: Outcome) -> list:
    pool = []
    for i in range(w.pool):
        if w.source == "wav":
            samples = inputs.command_audio(seed, i)
            path = work / f"utt{i}.wav"
            inputs.write_wav(path, samples)
            back = np.round(read_wav(path) * 32768.0)
            out.check(np.array_equal(back, samples), f"{path.name} does not read back")
            pool.append(Utterance(path, len(samples) / inputs.SAMPLE_RATE))
        else:
            feats = inputs.busy_features(seed, i, w.frames, input_dim)
            path = work / f"stream{i}.feat"
            write_feature_file(path, feats, norm="none")
            pool.append(Utterance(path, w.frames / inputs.FRAME_RATE))
    return pool


def _load(utt: Utterance, tracer):
    with span(tracer, "frontend"):
        if utt.path.suffix == ".wav":
            return extract_features(read_wav(utt.path))
        return read_feature_file(utt.path)[0]


def _decode(am, lm, arpa, utt: Utterance, cfg: RunConfig, tracer):
    with span(tracer, "utterance"):
        feats = _load(utt, tracer)
        with span(tracer, "decode"):
            return decode(am, lm, arpa, feats, cfg)


def _timed_reps(fn, reps: int, probe: SpeedProbe) -> tuple:
    """(last result, [(start, seconds)] of each repetition); probes after each."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        value = fn()
        times.append((t0, time.perf_counter() - t0))
        probe.sample()
    return value, times


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def closed_loop(n_items: int, request: Callable, seconds: float, tracer, probe, out: Outcome):
    """Send requests for items 0, 1, ... n_items-1, 0, ... back to back until
    every item ran once and `seconds` passed. With a tracer, each item runs
    untraced and then traced, so the overhead is measured on equal work.

    Returns (samples the metrics use, first sample of each item untraced,
    first traced sample of each item, traced / untraced wall ratios).
    """
    phases = (None, tracer) if tracer is not None else (None,)
    first = {tr is not None: [None] * n_items for tr in phases}
    kept, ratios = [], []
    start = time.perf_counter()
    i = 0
    while i < n_items or time.perf_counter() - start < seconds:
        k = i % n_items
        walls = []
        for tr in phases:
            if tr is not None:
                tr.install()
            t0 = time.perf_counter()
            try:
                sample = request(k, tr)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, the loop goes on
                traceback.print_exc()
                out.check(False, f"request {k} raised {raised(exc)}")
                continue
            finally:
                if tr is not None:
                    tr.uninstall()
            seen = first[tr is not None]
            bad = list(sample.bad)
            if seen[k] is None:
                seen[k] = sample
            elif seen[k].digest != sample.digest:
                bad.append("output differs from the item's first request")
            out.check(not bad, f"request {k}: {', '.join(bad)}")
            walls.append(sample.wall_s)
            sample.start = t0
            probe.sample()
            if tr is tracer:
                kept.append(sample)
        if len(walls) == 2:
            ratios.append(walls[1] / walls[0])
        i += 1
    return kept, first[False], first.get(True), ratios


def combine(digests) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    """A workload's inputs, set-up timings and callables, ready to run."""

    pool: list  # Utterance per item
    request: Callable  # (item, tracer or None) -> Sample
    warmup: Callable
    gate: Callable  # ([(Utterance, its first Sample)], Outcome) -> None
    setup_s: list  # [(start, seconds)]
    quantize_s: Optional[list] = None  # [(start, seconds)]; None: from the requests


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    tracer = Tracer() if trace else None
    if tracer is not None:
        out.info["trace.missing_patch_points"] = tracer.install()
    probe = SpeedProbe()
    prepare = _prepare_quantize if w.source == "quantize" else _prepare_decode
    prep = prepare(w, seed, work, tracer, probe, out)
    if tracer is not None:
        tracer.uninstall()
    prep.warmup()
    probe.sample()
    pool = prep.pool

    kept, first, first_traced, ratios = closed_loop(len(pool), prep.request, seconds, tracer, probe, out)

    # correctness gate, outside the timed section; an item whose every
    # request failed has no first sample and hashes as "-"
    out.check(all(s is not None for s in first), "every item ran")
    digests = [s.digest if s is not None else "-" for s in first]
    if tracer is not None:
        traced = [s.digest if s is not None else "-" for s in first_traced]
        out.check(traced == digests, "traced and untraced output digests differ")
    ran = [(u, s) for u, s in zip(pool, first) if s is not None]
    prep.gate(ran, out)
    first = [s for _, s in ran]

    speed = [probe.factor(s.start, s.start + s.wall_s) for s in kept]
    decode_s = [s.decode_s * f for s, f in zip(kept, speed)]
    rtf = [d / s.audio_s for d, s in zip(decode_s, kept)]
    raw_rtf = [s.decode_s / s.audio_s for s in kept]
    pool_audio = sum(u.audio_s for u, _ in ran)
    tail = float(np.percentile(rtf, TAIL_PCT))
    setup_s = prep.setup_s
    quantize_s = prep.quantize_s or [(s.start, s.quantize_s) for s in kept]
    out.info.update(
        {
            "digest": combine(digests),
            "requests": len(kept),
            "pool": len(pool),
            "pool_audio_s": pool_audio,
            "rtf.tail.percentile": TAIL_PCT,
            "rtf.tail.beyond": sum(1 for r in rtf if r > tail),
            "setup_s.samples": setup_s,
            "quantize_s.samples": quantize_s,
            "probe.samples": probe.samples,
            "probe.factors": speed,
            "requests.raw": [(s.start, s.wall_s, s.decode_s, s.audio_s) for s in kept],
            "raw.rtf.p50": statistics.median(raw_rtf),
            "raw.setup_s": statistics.median(dt for _, dt in setup_s),
            "raw.quantize_s.p50": statistics.median(dt for _, dt in quantize_s),
            "transcripts": [s.result.transcript for s in first],
        }
    )
    if tracer is not None:
        out.tracer = tracer
        out.metrics.update(per_layer(tracer, kept, ratios, out.info))
        return out
    out.metrics.update(
        {
            "rtf.p50": statistics.median(rtf),
            "rtf.tail": tail,
            "throughput.audio_s_per_s": sum(s.audio_s for s in kept) / sum(decode_s),
            "setup_s": statistics.median(probe.scaled(setup_s)),
            "peak_rss_mb": peak_rss_mb(),
            "sim.cycles_per_audio_s": sum(s.result.report["cycles.total"] for s in first) / pool_audio,
            "quantize_s.p50": statistics.median(probe.scaled(quantize_s)),
        }
    )
    return out


def _prepare_decode(w: Workload, seed: int, work: Path, tracer, probe, out: Outcome):
    am_f, lm_f = inputs.toy_models(w.toy)
    _quantize_pair(am_f, lm_f, tracer)  # the first call pays one-time costs
    (am_q, lm_q), quantize_s = _timed_reps(lambda: _quantize_pair(am_f, lm_f, tracer), QUANTIZE_REPS, probe)
    _write(am_q, work / "am.qnn", tracer)
    _write(lm_q, work / "lm.qnn", tracer)
    (work / "words.arpa").write_text(inputs.arpa_text(seed), encoding="utf-8")
    pool = _make_pool(w, seed, work, am_f.input_dim, out)

    def setup():
        am = _read(work / "am.qnn", tracer)
        lm = _read(work / "lm.qnn", tracer)
        with span(tracer, "wordlm.parse"):
            arpa = parse_arpa_file(work / "words.arpa")
        return am, lm, arpa

    (am, lm, arpa), setup_s = _timed_reps(setup, SETUP_REPS, probe)
    cfg = RunConfig(mode=w.mode, beam_width=w.beam)

    def request(k, tr):
        utt = pool[k]
        t0 = time.perf_counter()
        res = _decode(am, lm, arpa, utt, cfg, tr)
        dt = time.perf_counter() - t0
        bad = report_problems(res, w.mode, am.alphabet)
        return Sample(report_digest(res), dt, dt, utt.audio_s, res, bad)

    def warmup():
        decode(am, lm, arpa, _load(pool[0], None)[:WARMUP_FRAMES], cfg)

    def gate(ran, out):
        if w.mode != "hwsim":  # hwsim must match fixed bit for bit
            return
        fixed = RunConfig(mode="fixed", beam_width=w.beam)
        for utt, s in ran:
            try:
                ref = _decode(am, lm, arpa, utt, fixed, None)
            except Exception as exc:  # noqa: BLE001 - the gate counts it and goes on
                traceback.print_exc()
                out.check(False, f"{utt.path.name}: fixed decode raised {raised(exc)}")
                continue
            same = ref.transcript == s.result.transcript and list(ref.labels) == list(s.result.labels)
            out.check(same, f"{utt.path.name}: fixed and {w.mode} decodes differ")

    return Prepared(pool, request, warmup, gate, setup_s, quantize_s)


def _prepare_quantize(w: Workload, seed: int, work: Path, tracer, probe, out: Outcome):
    am_f, lm_f = inputs.toy_models(w.toy, seed=seed)
    save_float_model(am_f, work / "am_float.npz")
    save_float_model(lm_f, work / "lm_float.npz")
    pool = _make_pool(w, seed, work, am_f.input_dim, out)

    def setup():
        with span(tracer, "container.load_float"):
            return load_float_model(work / "am_float.npz"), load_float_model(work / "lm_float.npz")

    (am_f, lm_f), setup_s = _timed_reps(setup, SETUP_REPS, probe)
    cfg = RunConfig(mode=w.mode, beam_width=w.beam)
    paths = [work / n for n in ("am.qnn", "lm.qnn", "am.again.qnn", "lm.again.qnn")]

    def request(k, tr):
        t0 = time.perf_counter()
        am_q, lm_q = _quantize_pair(am_f, lm_f, tr)
        t1 = time.perf_counter()
        _write(am_q, paths[0], tr)
        _write(lm_q, paths[1], tr)
        am, lm = _read(paths[0], tr), _read(paths[1], tr)
        t2 = time.perf_counter()
        res = _decode(am, lm, None, pool[k], cfg, tr)
        t3 = time.perf_counter()
        am.write(paths[2])
        lm.write(paths[3])
        blobs = [p.read_bytes() for p in paths]
        bad = report_problems(res, w.mode, am.alphabet)
        if blobs[0] != blobs[2] or blobs[1] != blobs[3]:
            bad.append("write -> read -> write is not byte-identical")
        h = hashlib.sha256(blobs[0] + blobs[1] + report_digest(res).encode("ascii"))
        return Sample(h.hexdigest(), t3 - t0, t3 - t2, pool[k].audio_s, res, bad, t1 - t0)

    return Prepared(pool, request, lambda: request(0, None), lambda ran, out: None, setup_s)


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run
# ---------------------------------------------------------------------------


def per_layer(tracer: Tracer, kept: list, ratios: list, info: dict) -> dict:
    """Per-layer metrics from the spans and the reports of the traced requests.

    Times are per frame, per LM advance or per audio second of the traced
    utterances; set-up layers are per call, quantization per model pair.
    """
    reports = [s.result.report for s in kept]
    frames = sum(r["frames"] for r in reports)
    advances = sum(r["lm.advances"] for r in reports)
    audio = sum(s.audio_s for s in kept)
    totals = tracer.totals()

    def calls(layer):
        return totals.get(layer, (0, 0.0))[0]

    def secs(*layers):
        return sum(totals.get(layer, (0, 0.0))[1] for layer in layers)

    def per(x, n, scale=1.0):
        return x * scale / n if n else 0.0

    split, wall = tracer.utterance_split()
    info["trace.self_s"] = split
    info["trace.self_sum_s"] = sum(split.values())
    info["trace.utterance_wall_s"] = wall
    info["trace.shares"] = {k: v / wall for k, v in sorted(split.items(), key=lambda kv: -kv[1])}
    sizes = list(tracer.sizes.values())
    hw = [r for r in reports if "hw.am.cycles.measured" in r]
    pairs = calls("quantize")
    return {
        "frontend.ms_per_audio_s": per(secs("frontend"), audio, 1e3),
        "container.read_ms": per(secs("container.read"), calls("container.read"), 1e3),
        "wordlm.parse_ms": per(secs("wordlm.parse"), calls("wordlm.parse"), 1e3),
        "container.write_ms": per(secs("container.write"), calls("container.write"), 1e3),
        "quant.search_step_ms": per(secs("quant.search_step"), pairs, 1e3),
        "quant.search_step_calls": per(calls("quant.search_step"), pairs),
        "rnn.am.us_per_frame": per(secs("rnn.am"), frames, 1e6),
        "rnn.lm.us_per_advance": per(secs("rnn.lm"), advances, 1e6),
        "hwsim.am.us_per_frame": per(secs("hwsim.am"), frames, 1e6),
        "hwsim.lm.us_per_advance": per(secs("hwsim.lm"), advances, 1e6),
        "hwsim.context.us_per_advance": per(secs("hwsim.context"), advances, 1e6),
        "hwsim.context.ops": per(calls("hwsim.context"), frames),
        "hwsim.context.peak_slots": max((r.get("hw.context.peak_slots", 0) for r in reports), default=0),
        "hwsim.cycles.am_per_frame": per(sum(r["hw.am.cycles.measured"] for r in hw), frames),
        "hwsim.cycles.lm_per_advance": per(sum(r["hw.lm.cycles.measured"] for r in hw), advances),
        "hwsim.cycles.agree": sum(
            all(r[m] == r[c] for m, c in MEASURED_VS_MODEL) for r in hw
        ),
        "charlm.self_us_per_advance": per(split.get("charlm.advance_batch", 0.0), advances, 1e6),
        "decoder.step_self_us_per_frame": per(split.get("decoder.step", 0.0), frames, 1e6),
        "decoder.lm_batch.mean": per(sum(sizes), len(sizes)),
        "decoder.lm_batch.max": max(sizes, default=0),
        "decoder.lm_advances_per_frame": per(advances, frames),
        "decoder.mean_active": per(sum(r["beam.mean_active"] * r["frames"] for r in reports), frames),
        "decoder.prunes.width": per(sum(r["prunes.width"] for r in reports), frames),
        "decoder.prunes.depth": per(sum(r["prunes.depth"] for r in reports), frames),
        "wordlm.rescore_calls": per(calls("wordlm.delta"), frames),
        "wordlm.rescore_us_per_frame": per(split.get("wordlm.delta", 0.0), frames, 1e6),
        "engine.self_us_per_frame": per(split.get("decode", 0.0), frames, 1e6),
        "trace.overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
    }
