"""Frontend tests: framing arithmetic, Parseval energy check, filterbank
response at a tone, regression deltas on closed forms, and the sliding
normalizer's window statistics, and input errors that name the file. The
WAV reader is checked against scipy.io.wavfile.read, the reader it
replaced; scipy is a test-only dependency."""

import contextlib
import io
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from qasr.frontend import (
    FEATURE_DIM,
    HOP,
    LOG_FLOOR,
    N_FFT,
    N_MELS,
    NORM_MODES,
    SAMPLE_RATE,
    WINDOW,
    add_deltas,
    extract_features,
    frame_signal,
    logmel_energy,
    mel_filterbank,
    read_feature_file,
    read_wav,
    sliding_normalize,
    write_feature_file,
)


class TestFraming:
    def test_one_second_gives_98_frames(self):
        frames = frame_signal(np.zeros(SAMPLE_RATE))
        assert (WINDOW, HOP) == (400, 160)
        assert frames.shape == (98, 400)

    def test_too_short_gives_zero_frames(self):
        assert frame_signal(np.zeros(399)).shape[0] == 0

    def test_constant_signal_frames_identical(self):
        frames = frame_signal(np.ones(2000))
        for row in frames[1:]:
            np.testing.assert_array_equal(row, frames[0])

    def test_rejects_stereo(self):
        with pytest.raises(ValueError):
            frame_signal(np.zeros((100, 2)))


class TestLogmelEnergy:
    def test_silence_hits_log_floor(self):
        out = logmel_energy(np.zeros((3, 400)))
        np.testing.assert_array_equal(out, np.full((3, 41), LOG_FLOOR))

    def test_tone_at_filter_center_dominates(self):
        bank = mel_filterbank()
        bin_freqs = np.arange(N_FFT // 2 + 1) * SAMPLE_RATE / N_FFT
        m = 20
        center = bin_freqs[np.argmax(bank[m])]
        t = np.arange(16000) / SAMPLE_RATE
        tone = np.sin(2 * np.pi * center * t)
        out = logmel_energy(frame_signal(tone))
        mean = out[:, :40].mean(axis=0)
        assert mean[m] > mean[m - 2]
        assert mean[m] > mean[m + 2]

    def test_parseval_energy(self):
        rng = np.random.default_rng(1)
        frame = frame_signal(rng.normal(size=800))[0]
        out = logmel_energy(frame[None, :])
        direct = np.sum(frame**2)
        spec = np.fft.rfft(frame, n=N_FFT)
        full = np.abs(spec) ** 2
        # rfft halves the spectrum; double interior bins for the full sum
        spectral = (2 * full.sum() - full[0] - full[-1]) / N_FFT
        assert out[0, 40] == pytest.approx(np.log(direct), abs=1e-9)
        assert direct == pytest.approx(spectral, rel=1e-9)

    def test_filterbank_shape_and_support(self):
        bank = mel_filterbank()
        assert bank.shape == (N_MELS, 257)
        assert np.all(bank >= 0)
        assert np.all(bank.max(axis=1) > 0)

    def test_filterbank_is_built_once_and_read_only(self):
        bank = mel_filterbank()
        assert mel_filterbank() is bank
        with pytest.raises(ValueError, match="read-only"):
            bank[0, 0] = 1.0


class TestDeltas:
    def test_constant_sequence_zero_deltas(self):
        out = add_deltas(np.ones((10, 41)) * 3.5)
        np.testing.assert_array_equal(out[:, 41:], np.zeros((10, 82)))

    def test_linear_ramp_interior_delta_one(self):
        ramp = np.arange(12, dtype=float)[:, None] * np.ones((1, 2))
        out = add_deltas(ramp)
        delta = out[:, 2:4]
        np.testing.assert_allclose(delta[2:-2], 1.0, atol=1e-12)
        ddelta = out[4:-4, 4:6]
        np.testing.assert_allclose(ddelta, 0.0, atol=1e-12)

    def test_single_frame_zero_deltas(self):
        out = add_deltas(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out[0, 2:], np.zeros(4))

    def test_output_dim_is_123(self):
        out = add_deltas(np.zeros((5, 41)))
        assert out.shape == (5, FEATURE_DIM)


class TestSlidingNormalize:
    def test_constant_input_all_zero(self):
        out = sliding_normalize(np.full((50, 3), 7.0), window=10)
        np.testing.assert_array_equal(out, np.zeros((50, 3)))

    def test_interior_window_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.normal(2.0, 3.0, size=(900, 4))
        window = 300
        out = sliding_normalize(x, window=window)
        t = 450
        half = (window - 1) // 2
        win = x[t - half : t + half + 1]
        mu = win.mean(axis=0)
        sd = win.std(axis=0)
        # the emitted frame used exactly this window's statistics
        np.testing.assert_allclose(out[t], (x[t] - mu) / sd, atol=1e-9)
        z = (win - mu) / sd
        assert np.abs(z.mean(axis=0)).max() < 1e-6
        np.testing.assert_allclose(z.var(axis=0), 1.0, atol=1e-3)

    def test_short_stream_degrades_to_global(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 2))
        out = sliding_normalize(x, window=300)
        expected = (x - x.mean(axis=0)) / x.std(axis=0)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_idempotent_on_stationary_window_stats(self):
        # period 13 divides the 299-frame effective span, so every fully
        # interior window sees identical statistics and a second pass changes
        # nothing; the slice keeps second-pass windows clear of first-pass
        # edge effects (two half-windows deep)
        rng = np.random.default_rng(4)
        pattern = rng.normal(size=(13, 3))
        x = np.tile(pattern, (80, 1))
        once = sliding_normalize(x, window=300)
        twice = sliding_normalize(once, window=300)
        interior = slice(300, -300)
        assert np.abs(twice[interior] - once[interior]).max() < 1e-6

    def test_causal_mode_uses_trailing_window(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(500, 2))
        out = sliding_normalize(x, window=100, causal=True)
        t = 400
        win = x[t - 99 : t + 1]
        expected = (x[t] - win.mean(axis=0)) / win.std(axis=0)
        np.testing.assert_allclose(out[t], expected, atol=1e-9)

    def test_std_floor_prevents_blowup(self):
        x = np.full((10, 2), 5.0)
        x[3, 0] += 1e-9
        out = sliding_normalize(x, window=4)
        assert np.isfinite(out).all()


class TestPipeline:
    def test_dimensions_and_determinism(self):
        rng = np.random.default_rng(6)
        audio = rng.uniform(-0.5, 0.5, size=16000)
        a = extract_features(audio)
        b = extract_features(audio)
        assert a.shape == (98, 123)
        np.testing.assert_array_equal(a, b)

    def test_constant_audio_normalizes_to_zero(self):
        out = extract_features(np.full(8000, 0.25))
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_empty_audio(self):
        assert extract_features(np.zeros(10)).shape == (0, 123)

    def test_feature_dim_follows_the_mel_count(self):
        assert FEATURE_DIM == 3 * (N_MELS + 1) == 123

    @pytest.mark.parametrize("norm", NORM_MODES)
    def test_empty_and_one_second_inputs_have_the_same_columns(self, norm):
        empty = extract_features(np.zeros(10), norm=norm)
        full = extract_features(np.full(SAMPLE_RATE, 0.25), norm=norm)
        assert empty.shape[1] == full.shape[1] == FEATURE_DIM

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="'global'"):
            extract_features(np.zeros(SAMPLE_RATE), norm="global")


class TestFiles:
    def test_feature_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(17, 123)).astype(np.float32)
        p = tmp_path / "x.feat"
        write_feature_file(p, feats, norm="causal")
        back, norm = read_feature_file(p)
        assert norm == "causal"
        np.testing.assert_array_equal(back, feats)

    @pytest.mark.parametrize("norm", NORM_MODES)
    def test_every_mode_is_a_readable_tag(self, tmp_path, norm):
        p = tmp_path / "x.feat"
        write_feature_file(p, np.zeros((2, 3), dtype=np.float32), norm=norm)
        assert read_feature_file(p)[1] == norm

    def test_unknown_mode_not_written(self, tmp_path):
        p = tmp_path / "x.feat"
        with pytest.raises(ValueError, match="'global'"):
            write_feature_file(p, np.zeros((2, 3), dtype=np.float32), norm="global")
        assert not p.exists()

    @pytest.mark.parametrize("tag", [b"global", b"Centered", b"raw"])
    def test_unknown_tag_named(self, tmp_path, tag):
        p = tmp_path / "x.feat"
        p.write_bytes(b"ASRFEAT 1 4 12 " + tag + b"\n" + bytes(4 * 4 * 12))
        named = f"^{re.escape(str(p))}: unknown normalization tag '{tag.decode()}'"
        with pytest.raises(ValueError, match=named):
            read_feature_file(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "x.feat"
        write_feature_file(p, np.zeros((4, 123), dtype=np.float32))
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="payload"):
            read_feature_file(p)

    def test_wav_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        pcm = (rng.uniform(-0.3, 0.3, size=16000) * 32768).astype(np.int16)
        p = tmp_path / "x.wav"
        wavfile.write(p, 16000, pcm)
        audio = read_wav(p)
        np.testing.assert_allclose(audio, pcm / 32768.0, atol=1e-9)

    def test_wav_wrong_rate_rejected(self, tmp_path):
        p = tmp_path / "x.wav"
        wavfile.write(p, 8000, np.zeros(100, dtype=np.int16))
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: expected 16000 Hz, got 8000$"):
            read_wav(p)

    @pytest.mark.parametrize("pcm, named", [
        (np.zeros((100, 2), dtype=np.int16), "expected mono audio, got 2 channels"),
        (np.zeros(100, dtype=np.float32), "expected 16-bit PCM, got float32"),
        (np.zeros(100, dtype=np.uint8), "expected 16-bit PCM, got 8-bit PCM in 1-byte blocks"),
    ])
    def test_wav_of_the_wrong_kind_named(self, tmp_path, pcm, named):
        p = tmp_path / "x.wav"
        wavfile.write(p, SAMPLE_RATE, pcm)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {named}$"):
            read_wav(p)

    @pytest.mark.parametrize("cut", [0, 5, 30])
    def test_not_a_wav_named(self, tmp_path, cut):
        p = tmp_path / "x.wav"
        wavfile.write(p, SAMPLE_RATE, np.zeros(100, dtype=np.int16))
        p.write_bytes(b"hello world" if cut == 0 else p.read_bytes()[:cut])
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: not a readable WAV file"):
            read_wav(p)

    @pytest.mark.parametrize("offset, fmt, value, named", [
        (16, "<I", 1000, "not a readable WAV file"),  # fmt chunk runs past the data
        (22, "<H", 0, "not a readable WAV file"),  # no channels
        (40, "<I", 20000, "the data chunk is cut short: it holds 200 of the 20000 bytes"),
    ])
    def test_malformed_wav_header_named(self, tmp_path, offset, fmt, value, named):
        p = tmp_path / "x.wav"
        wavfile.write(p, SAMPLE_RATE, np.zeros(100, dtype=np.int16))
        raw = bytearray(p.read_bytes())
        raw[offset : offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
        p.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {named}"):
            read_wav(p)

    @pytest.mark.parametrize("offset, fmt, value, reason", [
        (16, "<I", 1000, "the fmt chunk at byte 12 gives 1000 bytes, but 224 follow: it runs "
                         "past the end of the file, so no data chunk follows"),
        (22, "<H", 0, "the fmt chunk gives 0 channels"),
    ])
    def test_malformed_fmt_chunk_gives_the_reason(self, tmp_path, offset, fmt, value, reason):
        p = tmp_path / "x.wav"
        wavfile.write(p, SAMPLE_RATE, np.zeros(100, dtype=np.int16))
        raw = bytearray(p.read_bytes())
        raw[offset : offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
        p.write_bytes(raw)
        named = re.escape(f"{p}: not a readable WAV file ({reason})")
        with pytest.raises(ValueError, match=f"^{named}$"):
            read_wav(p)

    def test_wav_cut_in_its_data_named_with_the_byte_counts(self, tmp_path):
        p = tmp_path / "x.wav"
        wavfile.write(p, SAMPLE_RATE, np.zeros(8000, dtype=np.int16))
        assert len(p.read_bytes()) == 16044
        p.write_bytes(p.read_bytes()[:50])
        named = "the data chunk is cut short: it holds 6 of the 16000 bytes its header gives"
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {named}$"):
            read_wav(p)

    @pytest.mark.parametrize("header", [
        b"ASRFEAT 1 x 12 none", b"ASRFEAT 1 4 -12 none", b"ASRFEAT 2 4 12 none",
        b"ASRFEAT 1 4 12", b"\xff\xfe", b"",
    ])
    def test_bad_feature_header_named(self, tmp_path, header):
        p = tmp_path / "x.feat"
        p.write_bytes(header + b"\n" + bytes(4 * 4 * 12))
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: not a feature file"):
            read_feature_file(p)

    @pytest.mark.parametrize("wav, named", [
        (lambda p: wavfile.write(p, 8000, np.zeros(800, dtype=np.int16)), "expected 16000 Hz"),
        (lambda p: wavfile.write(p, 16000, np.zeros((800, 2), dtype=np.int16)),
         "expected mono audio"),
        (lambda p: p.write_bytes(b"hello world"), "not a readable WAV file"),
    ])
    def test_decode_of_a_bad_wav_exits_2_naming_it(self, tmp_path, capsys, wav, named):
        from qasr.cli import main_decode
        from qasr.toy import gen_toy

        paths = gen_toy("tiny,frames=4,seed=3", tmp_path / "toy")
        p = tmp_path / "bad.wav"
        wav(p)
        capsys.readouterr()
        assert main_decode(["--am", paths["am"], "--wav", str(p)]) == 2
        assert f"asr-decode: {p}: {named}" in capsys.readouterr().err

    def test_decode_of_zero_dim_frames_exits_2_naming_the_widths(self, tmp_path, capsys):
        from qasr.cli import main_decode
        from qasr.toy import gen_toy

        paths = gen_toy("tiny,frames=4,seed=3", tmp_path / "toy")
        p = tmp_path / "flat.feat"
        p.write_bytes(b"ASRFEAT 1 5 0 none\n")
        capsys.readouterr()
        assert main_decode(["--am", paths["am"], "--features", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"asr-decode: {p}: features are 0-dim, the acoustic model {paths['am']} wants 12" in err

    def test_decode_of_a_bad_feature_header_exits_2_naming_it(self, tmp_path, capsys):
        from qasr.cli import main_decode
        from qasr.toy import gen_toy

        paths = gen_toy("tiny,frames=4,seed=3", tmp_path / "toy")
        p = tmp_path / "bad.feat"
        p.write_bytes(b"ASRFEAT 1 x 12 none\n")
        capsys.readouterr()
        assert main_decode(["--am", paths["am"], "--features", str(p)]) == 2
        assert f"asr-decode: {p}: not a feature file" in capsys.readouterr().err

    def test_decode_of_an_unknown_tag_exits_2_naming_it(self, tmp_path, capsys):
        from qasr.cli import main_decode
        from qasr.toy import gen_toy

        paths = gen_toy("tiny,frames=120,seed=3", tmp_path / "toy")
        p = tmp_path / "global.feat"
        with open(paths["features"], "rb") as fh:
            head, _, payload = fh.read().partition(b"\n")
        assert head == b"ASRFEAT 1 120 12 none"
        p.write_bytes(b"ASRFEAT 1 120 12 global\n" + payload)
        capsys.readouterr()
        assert main_decode(["--am", paths["am"], "--features", str(p)]) == 2
        assert f"asr-decode: {p}: unknown normalization tag 'global'" in capsys.readouterr().err


# the header fields of a canonical 44-byte PCM WAV file: offset and struct
# format of each
WAV_FIELDS = {
    "riff_size": (4, "<I"),
    "fmt_size": (16, "<I"),
    "format_tag": (20, "<H"),
    "channels": (22, "<H"),
    "rate": (24, "<I"),
    "bit_depth": (34, "<H"),
    "data_size": (40, "<I"),
}


@pytest.fixture(scope="module")
def small_toy_am(tmp_path_factory):
    """An acoustic model that reads the frontend's 123-dim features."""
    from qasr.toy import gen_toy

    return gen_toy("small,frames=4,seed=3", tmp_path_factory.mktemp("small_toy"))["am"]


# new values for some of those fields, and where to cut the file
wav_fields = st.dictionaries(
    st.sampled_from(sorted(WAV_FIELDS)),
    st.one_of(
        st.sampled_from([0, 1, 2, 3, 8, 16, 24, 32, 44, 100, 1000, 8000, 16000, 65535]),
        st.integers(0, 2**32 - 1),
    ),
    max_size=3,
)
wav_cuts = st.one_of(st.none(), st.integers(0, 3243))


def mutated(raw: bytes, fields: dict, cut) -> bytes:
    """raw with the WAV_FIELDS in fields set to their values, modulo the
    field's range, and cut to its first cut bytes."""
    raw = bytearray(raw)
    for name, value in fields.items():
        offset, fmt = WAV_FIELDS[name]
        size = struct.calcsize(fmt)
        raw[offset : offset + size] = struct.pack(fmt, value % 2 ** (8 * size))
    return bytes(raw[:cut])


class TestWavMutations:
    """A WAV file with mutated header fields, or cut short, decodes through
    asr-decode with exit 0, or exits 2 naming the file; never 3."""

    @given(fields=wav_fields, cut=wav_cuts)
    @settings(max_examples=60)
    def test_exit_0_or_2_naming_the_file(self, small_toy_am, tmp_path_factory, fields, cut):
        from qasr.cli import main_decode

        p = tmp_path_factory.mktemp("wav") / "mutated.wav"
        wavfile.write(p, SAMPLE_RATE, (np.sin(np.arange(1600) / 7.0) * 3000).astype(np.int16))
        raw = p.read_bytes()
        assert len(raw) == 3244
        p.write_bytes(mutated(raw, fields, cut))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main_decode(["--am", small_toy_am, "--wav", str(p), "--beam", "4"])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert f"asr-decode: {p}: " in err.getvalue()


@pytest.fixture(scope="module")
def tiny_toy_am(tmp_path_factory):
    """An acoustic model that reads 12-dim features."""
    from qasr.toy import gen_toy

    return gen_toy("tiny,frames=4,seed=3", tmp_path_factory.mktemp("toy"))["am"]


# a count that is another number, or a token that is not a decimal count
_COUNTS = st.integers(0, 80).map(str) | st.sampled_from(
    ["-1", "+6", "x", "1e1", "0x6", "6.0", "\u0666", "99999999999999999999999"])
# each part of the feature-file header "ASRFEAT 1 <frames> <dim> <tag>\n"
# of a 6 x 12 file: its value there, and the values a mutation puts in
# its place
FEATURE_HEADER = {
    "magic": ("ASRFEAT", st.sampled_from(["ASRFEA", "asrfeat", "ASRFEATS", ""])
              | st.text(max_size=8)),
    "version": ("1", st.sampled_from(["2", "0", "01", "1.0", ""])),
    "frames": ("6", _COUNTS),
    "dim": ("12", _COUNTS),
    "tag": ("none", st.sampled_from(["causal", "centered", "global", ""]) | st.text(max_size=6)),
    "sep": (" ", st.sampled_from(["  ", "\t", " \t", ""])),
    "end": ("\n", st.sampled_from(["\r\n", " \n", ""])),
    "extra": ("", st.sampled_from([" 7", " none"])),
}
# up to three parts of the header replaced
feature_edits = st.lists(
    st.one_of([st.tuples(st.just(k), v) for k, (_, v) in FEATURE_HEADER.items()]), max_size=3)
# the file cut short after this many bytes, if not None
feature_cuts = st.one_of(st.none(), st.integers(0, 6 * 12 * 4 + 40))


class TestFeatureHeaderMutations:
    """A feature file with a mutated header, or cut short, decodes through
    asr-decode with exit 0, or exits 2 naming the file; never 3."""

    @given(edits=feature_edits, cut=feature_cuts)
    @settings(max_examples=60)
    def test_exit_0_or_2_naming_the_file(self, tiny_toy_am, tmp_path_factory, edits, cut):
        from qasr.cli import main_decode

        p = tmp_path_factory.mktemp("feat") / "mutated.feat"
        header = {k: v for k, (v, _) in FEATURE_HEADER.items()} | dict(edits)
        fields = [header[k] for k in ("magic", "version", "frames", "dim", "tag")]
        line = header["sep"].join(fields) + header["extra"] + header["end"]
        payload = (np.sin(np.arange(6 * 12) / 5.0)).astype("<f4").tobytes()
        raw = line.encode("utf-8", "surrogatepass") + payload
        p.write_bytes(raw if cut is None else raw[:cut])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main_decode(["--am", tiny_toy_am, "--features", str(p), "--beam", "4"])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert f"asr-decode: {p}: " in err.getvalue()

def riff(*chunks, tail=b"") -> bytes:
    """A RIFF WAVE file of (id, payload) chunks, each padded to even length,
    then the bytes tail; the RIFF size counts them all."""
    body = b"".join(cid + struct.pack("<I", len(p)) + p + bytes(len(p) % 2) for cid, p in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body + tail)) + b"WAVE" + body + tail


def rf64(fmt: bytes, pcm: bytes) -> bytes:
    """An RF64 file of one fmt and one data chunk, its sizes in a ds64 chunk."""
    ds64 = struct.pack("<QQQI", 72 + len(pcm), len(pcm), len(pcm) // 2, 0)
    return (b"RF64" + bytes([255] * 4) + b"WAVEds64" + struct.pack("<I", len(ds64)) + ds64
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + bytes([255] * 4) + pcm)


def canonical_wav() -> bytes:
    """The 44-byte header and 1,600 samples that TestWavMutations mutates."""
    buf = io.BytesIO()
    wavfile.write(buf, SAMPLE_RATE, (np.sin(np.arange(1600) / 7.0) * 3000).astype(np.int16))
    return buf.getvalue()


CANONICAL = canonical_wav()


FMT_PCM = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16)
# WAVE_FORMAT_EXTENSIBLE, 16 valid bits, front centre, the PCM subformat GUID
FMT_EXTENSIBLE = (
    struct.pack("<HHIIHHHHI", 0xFFFE, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16, 22, 16, 4)
    + bytes.fromhex("01000000" "0000" "1000" "8000" "00aa00389b71")
)
PCM = (np.sin(np.arange(100) / 5.0) * 9000).astype("<i2").tobytes()

# each hand-made file, and whether scipy.io.wavfile.read reads it as mono
# 16-bit PCM at 16 kHz
WAV_VARIANTS = {
    "canonical": (CANONICAL, True),
    "extensible-pcm": (riff((b"fmt ", FMT_EXTENSIBLE), (b"data", PCM)), True),
    "list-fact-junk": (riff((b"JUNK", bytes(28)), (b"fmt ", FMT_PCM), (b"LIST", b"INFOx"),
                            (b"fact", struct.pack("<I", 100)), (b"data", PCM)), True),
    "fmt-18": (riff((b"fmt ", FMT_PCM + bytes(2)), (b"data", PCM)), True),
    # scipy reads 40 bytes of an EXTENSIBLE fmt chunk whatever size it gives
    "extensible-size-24": (b"RIFF" + struct.pack("<I", 60 + len(PCM)) + b"WAVEfmt "
                           + struct.pack("<I", 24) + FMT_EXTENSIBLE
                           + b"data" + struct.pack("<I", len(PCM)) + PCM, True),
    "extensible-cut": (riff((b"fmt ", FMT_EXTENSIBLE), (b"data", PCM))[:37], False),
    "extensible-no-extension": (riff((b"fmt ", FMT_EXTENSIBLE[:16] + bytes(2)
                                      + FMT_EXTENSIBLE[18:]), (b"data", PCM)), False),
    "extensible-other-guid": (riff((b"fmt ", FMT_EXTENSIBLE[:-1] + b"\x72"), (b"data", PCM)),
                              False),
    "byte-rate-0": (riff((b"fmt ", FMT_PCM[:8] + bytes(4) + FMT_PCM[12:]), (b"data", PCM)),
                    False),
    # scipy steps past an odd data chunk by its size, not its pad byte, so it
    # reads the next id from the pad byte on and skips the second data chunk;
    # read_wav refuses the file
    "odd-data": (riff((b"fmt ", FMT_PCM), (b"data", PCM + b"\x07"), (b"data", PCM[::-1])), True),
    "two-data": (riff((b"fmt ", FMT_PCM), (b"data", PCM[:60]), (b"data", PCM)), True),
    # whole samples all there, the odd byte of the data chunk cut off
    "odd-data-cut": (riff((b"fmt ", FMT_PCM), (b"data", PCM + b"\x07"))[:-2], True),
    # an odd data chunk and its pad byte end the file
    "odd-data-last": (riff((b"fmt ", FMT_PCM), (b"data", PCM + b"\x07")), True),
    # the RIFF size ends at the odd data chunk's last byte, and the walk
    # with it; the pad byte and a chunk lie past it
    "odd-data-riff-end": (struct.pack("<4sI", b"RIFF", 237) + riff((b"fmt ", FMT_PCM),
                          (b"data", PCM + b"\x07"))[8:] + b"LIST" + struct.pack("<I", 4) + b"INFO",
                          True),
    # after the data, scipy takes a cut id, or an id other than fmt and
    # data with no size, and fails on any other cut chunk header
    "tail-cut-id": (riff((b"fmt ", FMT_PCM), (b"data", PCM), tail=b"LI"), True),
    "tail-bare-id": (riff((b"fmt ", FMT_PCM), (b"data", PCM), tail=b"LIST"), True),
    "tail-bare-data-id": (riff((b"fmt ", FMT_PCM), (b"data", PCM), tail=b"data"), False),
    "tail-cut-size": (riff((b"fmt ", FMT_PCM), (b"data", PCM), tail=b"LIST\x04"), False),
    # a fmt chunk cut after its fields fails only before any data chunk
    "tail-cut-fmt": (riff((b"fmt ", FMT_PCM), (b"data", PCM),
                          tail=b"fmt " + struct.pack("<I", 100) + FMT_PCM), True),
    "riff-size-0": (CANONICAL[:4] + bytes(4) + CANONICAL[8:], False),
    "no-data": (riff((b"fmt ", FMT_PCM), (b"LIST", b"INFO")), False),
    "data-before-fmt": (riff((b"data", PCM), (b"fmt ", FMT_PCM)), False),
    "rf64": (rf64(FMT_PCM, PCM), True),
}


def scipy_samples(path):
    """The samples of the WAV file at path where scipy reads it as mono
    int16 at SAMPLE_RATE, warnings ignored; None where it does not."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rate, data = wavfile.read(path)
    except Exception:  # noqa: BLE001 - scipy raises many types on a bad header
        return None
    return data if rate == SAMPLE_RATE and data.ndim == 1 and data.dtype == np.int16 else None


def assert_reads_as_scipy(path):
    """read_wav(path) returns scipy's samples / 32768, bit for bit, where
    scipy reads mono int16 at SAMPLE_RATE and all the bytes that its data
    chunk's header gives; it raises a ValueError naming the file otherwise,
    for RF64, which scipy reads, and for an odd-sized data chunk that
    another chunk follows, whose header scipy read from the pad byte on."""
    data, raw = scipy_samples(path), path.read_bytes()
    try:
        audio = read_wav(path)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: "), message
        odd = re.search(r"the data chunk at byte (\d+) gives an odd (\d+) bytes, and another "
                        r"chunk follows it\)$", message)
        if odd:
            at, size = map(int, odd.groups())
            assert raw[at : at + 8] == b"data" + struct.pack("<I", size) and size % 2
            assert at + 16 + size <= len(raw)  # a whole chunk header from the pad byte on
            return
        if data is not None and raw[:4] != b"RF64":  # scipy's samples stop short
            cut = re.search(r": the data chunk is cut short: it holds (\d+) of the (\d+) bytes",
                            message)
            assert cut, message
            held, size = map(int, cut.groups())
            assert held // 2 == len(data) < size // 2
            assert b"data" + struct.pack("<I", size) in raw
        return
    assert data is not None and raw[:4] != b"RF64"
    assert audio.tobytes() == (data.astype(np.float64) / 32768.0).tobytes()


@pytest.fixture(scope="module")
def wav_path(tmp_path_factory):
    return tmp_path_factory.mktemp("wav_reader") / "x.wav"


class TestWavReader:
    """read_wav against scipy.io.wavfile.read, the reader it replaced."""

    @pytest.mark.parametrize("name", sorted(WAV_VARIANTS))
    def test_variant_reads_as_scipy(self, wav_path, name):
        raw, scipy_reads = WAV_VARIANTS[name]
        wav_path.write_bytes(raw)
        assert (scipy_samples(wav_path) is not None) == scipy_reads
        assert_reads_as_scipy(wav_path)

    @given(name=st.sampled_from(sorted(WAV_VARIANTS)), fields=wav_fields, cut=wav_cuts)
    @settings(max_examples=500)
    def test_mutated_variant_reads_as_scipy(self, wav_path, name, fields, cut):
        wav_path.write_bytes(mutated(WAV_VARIANTS[name][0], fields, cut))
        assert_reads_as_scipy(wav_path)

    @pytest.mark.parametrize("raw, reason", [
        (CANONICAL[:5], "the file ends at byte 5, inside its 12-byte RIFF header"),
        (CANONICAL[:30], "the fmt chunk at byte 12 gives 16 bytes, but 10 follow: it runs "
                               "past the end of the file, so no data chunk follows"),
        (WAV_VARIANTS["riff-size-0"][0], "no fmt chunk in the 0 bytes of its RIFF size"),
        (WAV_VARIANTS["no-data"][0], "no data chunk in the 40 bytes of its RIFF size"),
        (WAV_VARIANTS["data-before-fmt"][0],
         "the data chunk at byte 12 comes before any fmt chunk"),
        (WAV_VARIANTS["rf64"][0], "RF64 files are not read"),
        (b"hello world", "its first 4 bytes are b'hell', not RIFF"),
        (CANONICAL[:8] + b"WAVX", "its RIFF form type is b'WAVX', not WAVE"),
        (WAV_VARIANTS["byte-rate-0"][0],
         "the fmt chunk gives 0 bytes per second, not 16000 Hz times 2-byte blocks"),
        (CANONICAL[:20] + b"\x02" + CANONICAL[21:],
         "format tag 0x0002 is neither PCM nor IEEE float"),
        (WAV_VARIANTS["odd-data"][0],
         "the data chunk at byte 36 gives an odd 201 bytes, and another chunk follows it"),
    ], ids=["cut-5", "cut-30", "riff-size-0", "no-data", "data-before-fmt", "rf64", "not-riff",
            "not-wave", "byte-rate", "adpcm", "odd-data"])
    def test_what_is_missing_or_wrong_named(self, wav_path, raw, reason):
        wav_path.write_bytes(raw)
        named = re.escape(f"{wav_path}: not a readable WAV file ({reason})")
        with pytest.raises(ValueError, match=f"^{named}$"):
            read_wav(wav_path)

    def test_a_data_chunk_that_is_not_mono_16_bit_is_refused_where_it_stands(self, wav_path):
        # scipy read the second data chunk here, stepping over the first by
        # a rule that follows its sample type
        stereo = struct.pack("<HHIIHH", 1, 2, SAMPLE_RATE, 4 * SAMPLE_RATE, 4, 16)
        wav_path.write_bytes(riff((b"fmt ", stereo), (b"data", PCM), (b"fmt ", FMT_PCM),
                                  (b"data", PCM)))
        assert scipy_samples(wav_path) is not None
        named = re.escape(f"{wav_path}: expected mono audio, got 2 channels")
        with pytest.raises(ValueError, match=f"^{named}$"):
            read_wav(wav_path)

    def test_samples_of_a_padded_odd_chunk_and_of_the_last_data_chunk(self, wav_path):
        for name in ("odd-data-cut", "odd-data-last", "odd-data-riff-end", "two-data",
                     "extensible-pcm", "extensible-size-24"):
            wav_path.write_bytes(WAV_VARIANTS[name][0])
            expected = np.frombuffer(PCM, "<i2") / 32768.0
            assert read_wav(wav_path).tobytes() == expected.tobytes(), name
