"""ARPA parser and back-off scorer tests on handcrafted models, the
errors of ARPA files, and mutated files through asr-decode.

The toy model below is small enough to evaluate the recursion by hand:
  P(C | A, B): trigram absent -> bow(A,B) + P(C | B) = -0.1 + -0.5 = -0.6
"""

import gzip
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasr.cli import main_decode
from qasr.toy import gen_toy
from qasr.wordlm import (
    ArpaModel,
    ArpaParseError,
    log_prob,
    parse_arpa,
    parse_arpa_file,
    rescore,
    write_arpa,
)

from helpers import reference_parse_arpa

TOY_ARPA = """\
\\data\\
ngram 1=3
ngram 2=3
ngram 3=1

\\1-grams:
-0.5\tA\t-0.30103
-0.6\tB\t-0.2
-0.9\tC

\\2-grams:
-0.3\tA B\t-0.1
-0.5\tB C
-0.7\tA C

\\3-grams:
-0.2\tA B A

\\end\\
"""


def toy_model():
    return parse_arpa(io.StringIO(TOY_ARPA))


class TestParse:
    def test_counts_and_vocab(self):
        m = toy_model()
        assert m.order == 3
        assert m.counts() == {1: 3, 2: 3, 3: 1}
        assert m.vocab == {"A", "B", "C"}

    def test_single_unigram_probability(self):
        m = parse_arpa(io.StringIO("\\data\\\nngram 1=1\n\\1-grams:\n-0.30103 HELLO\n\\end\\\n"))
        assert 10 ** log_prob(m, "HELLO") == pytest.approx(0.5, abs=1e-5)

    def test_empty_bigram_section_ok(self):
        text = "\\data\\\nngram 1=1\nngram 2=0\n\\1-grams:\n-0.1 A\n\\2-grams:\n\\end\\\n"
        m = parse_arpa(io.StringIO(text))
        assert m.order == 2
        assert m.counts()[2] == 0

    def test_count_mismatch_reports_line(self):
        text = "\\data\\\nngram 1=3\nngram 2=0\n\\1-grams:\n-0.1 A\n-0.2 B\n\\2-grams:\n\\end\\\n"
        with pytest.raises(ArpaParseError, match="line 7"):
            parse_arpa(io.StringIO(text))

    def test_non_numeric_field_reports_line(self):
        text = "\\data\\\nngram 1=1\n\\1-grams:\noops A\n\\end\\\n"
        with pytest.raises(ArpaParseError, match="line 4"):
            parse_arpa(io.StringIO(text))

    def test_missing_end_rejected(self):
        text = "\\data\\\nngram 1=1\n\\1-grams:\n-0.1 A\n"
        with pytest.raises(ArpaParseError, match="end"):
            parse_arpa(io.StringIO(text))

    def test_undeclared_section_rejected(self):
        text = "\\data\\\nngram 1=1\n\\1-grams:\n-0.1 A\n\\2-grams:\n\\end\\\n"
        with pytest.raises(ArpaParseError, match="declared"):
            parse_arpa(io.StringIO(text))

    def test_order_above_three_rejected(self):
        text = (
            "\\data\\\nngram 1=1\nngram 2=0\nngram 3=0\nngram 4=0\n"
            "\\1-grams:\n-0.1 A\n\\2-grams:\n\\3-grams:\n\\4-grams:\n\\end\\\n"
        )
        with pytest.raises(ArpaParseError, match="order 4"):
            parse_arpa(io.StringIO(text))

    def test_gzip_round_trip(self, tmp_path):
        p = tmp_path / "toy.arpa.gz"
        with gzip.open(p, "wt", encoding="utf-8") as fh:
            fh.write(TOY_ARPA)
        m = parse_arpa_file(p)
        assert m.counts() == {1: 3, 2: 3, 3: 1}


def _outcome(parse, text):
    """parse's model of text, with line ends as a file in text mode reads
    them, or the text of its ArpaParseError."""
    try:
        return parse(io.StringIO(text, newline=None))
    except ArpaParseError as exc:
        return str(exc)


class TestArpaFile:
    """parse_arpa_file: parse_arpa's errors and those of the file's bytes,
    each as "<path>: line N: ..." with N counted as text mode counts it."""

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_parse_error_names_the_file_and_line(self, tmp_path, end):
        p = tmp_path / "bad.arpa"
        p.write_bytes(TOY_ARPA.replace("-0.6\tB", "X\tB").replace("\n", end).encode())
        with pytest.raises(ArpaParseError) as exc:
            parse_arpa_file(p)
        assert str(exc.value) == f"{p}: line 8: non-numeric log probability 'X'"
        assert exc.value.line == 8

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_non_utf8_byte_names_the_file_and_line(self, tmp_path, end):
        p = tmp_path / "bad.arpa"
        p.write_bytes(TOY_ARPA.replace("\n", end).encode().replace(b"\tB\t", b"\tB\xff\t"))
        with pytest.raises(ArpaParseError) as exc:
            parse_arpa_file(p)
        assert str(exc.value) == f"{p}: line 8: byte 0xff is not UTF-8 text (invalid start byte)"

    @pytest.mark.parametrize("old, new, named", [
        ("-0.6\tB", "nan\tB", "non-finite log probability 'nan'"),
        ("-0.6\tB", "-inf\tB", "non-finite log probability '-inf'"),
        ("-0.6\tB", "1e999\tB", "non-finite log probability '1e999'"),
        ("B\t-0.2", "B\tNaN", "non-finite back-off weight 'NaN'"),
        ("B\t-0.2", "B\tinf", "non-finite back-off weight 'inf'"),
    ])
    def test_non_finite_value_names_the_file_and_line(self, tmp_path, old, new, named):
        p = tmp_path / "bad.arpa"
        text = TOY_ARPA.replace(old, new)
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ArpaParseError) as exc:
            parse_arpa_file(p)
        assert str(exc.value) == f"{p}: line 8: {named}"
        assert _outcome(reference_parse_arpa, text) == f"line 8: {named}"

    def test_zero_probability_is_a_large_negative_number(self):
        m = parse_arpa(io.StringIO(TOY_ARPA.replace("-0.9\tC", "-99\tC")))
        assert log_prob(m, "C") == -99.0

    def test_non_finite_values_exit_2_naming_the_file_and_line(self, tmp_path, capsys):
        toy = gen_toy("tiny,frames=6,seed=11", tmp_path / "toy")
        p = tmp_path / "nan.arpa"
        lines = Path(toy["arpa"]).read_text(encoding="utf-8").split("\n")
        first = next(k for k, line in enumerate(lines) if line.startswith("\\1-grams:")) + 1
        lines = [("nan" + line[line.index("\t"):]) if k >= first and line[:1] == "-" else line
                 for k, line in enumerate(lines)]
        p.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        rc = main_decode(["--am", toy["am"], "--lm", toy["lm"], "--arpa", str(p),
                          "--lambda", "1", "--features", toy["features"]])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"asr-decode: {p}: line {first + 1}: non-finite log probability 'nan'")

    def test_plain_text_named_gz_names_the_file(self, tmp_path):
        p = tmp_path / "plain.arpa.gz"
        p.write_text(TOY_ARPA, encoding="utf-8")
        with pytest.raises(ArpaParseError) as exc:
            parse_arpa_file(p)
        assert str(exc.value).startswith(f"{p}: line 1: Not a gzipped file")

    def test_truncated_gzip_exits_2_naming_the_file(self, tmp_path, capsys):
        toy = gen_toy("tiny,frames=6,seed=11", tmp_path / "toy")
        p = tmp_path / "trunc.arpa.gz"
        p.write_bytes(gzip.compress(Path(toy["arpa"]).read_bytes())[:-12])
        capsys.readouterr()
        rc = main_decode(["--am", toy["am"], "--arpa", str(p), "--features", toy["features"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"asr-decode: {p}: line ")
        assert "end-of-stream marker" in err

    def test_every_line_moved_or_copied_anywhere_reads_as_the_reference(self):
        """The file itself, and markers and entries out of place: a section
        header, \\data\\ or \\end\\ inside a section, an entry outside
        one, a section twice."""
        lines = TOY_ARPA.split("\n")
        for k, line in enumerate(lines):
            rest = lines[:k] + lines[k + 1 :]
            for j in range(len(lines)):
                for edited in (rest[:j] + [line] + rest[j:], lines[:j] + [line] + lines[j:]):
                    text = "\n".join(edited)
                    assert _outcome(parse_arpa, text) == _outcome(reference_parse_arpa, text)


# mutations of one line (i) of an ARPA file, or of its byte or place j
MUTATIONS = ("delete line", "duplicate line", "move line", "drop field", "add field",
             "non-numeric", "non-finite", "non-UTF-8 byte", "truncate")
FIELDS = (b"-0.5", b"A", b"X", b"\\end\\")
NON_FINITE = (b"nan", b"-inf", b"Infinity", b"1e999", b"-NaN")


def _mutate(data: bytes, op: str, i: int, j: int) -> bytes:
    if op == "non-UTF-8 byte":
        at = j % (len(data) + 1)
        return data[:at] + b"\xff" + data[at:]
    if op == "truncate":
        return data[: j % (len(data) + 1)]
    lines = data.split(b"\n")
    k = i % len(lines)
    fields = lines[k].split()
    if op == "delete line":
        del lines[k]
    elif op == "duplicate line":
        lines.insert(k, lines[k])
    elif op == "move line":
        lines.insert(j % len(lines), lines.pop(k))
    elif op == "drop field" and fields:
        del fields[j % len(fields)]
    elif op == "add field":
        fields.insert(j % (len(fields) + 1), FIELDS[j % len(FIELDS)])
    elif op in ("non-numeric", "non-finite") and fields:
        numbers = [m for m, f in enumerate(fields) if f[:1] in b"-0123456789"]
        value = b"X" if op == "non-numeric" else NON_FINITE[j % len(NON_FINITE)]
        fields[(numbers or range(len(fields)))[j % len(numbers or fields)]] = value
    if op in ("drop field", "add field", "non-numeric", "non-finite"):
        lines[k] = b"\t".join(fields)
    return b"\n".join(lines)


class TestArpaMutations:
    """Mutated ARPA files through asr-decode: exit 0, or exit 2 naming the
    file, never 3; and parse_arpa reads each decodable text as the
    reference reader does, to the model or the error text."""

    @pytest.fixture(scope="class")
    def toy(self, tmp_path_factory):
        return gen_toy("tiny,frames=6,seed=11", tmp_path_factory.mktemp("arpa"))

    @settings(max_examples=60)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6), st.integers(0, 10**6)),
            min_size=1, max_size=3,
        ),
        store=st.sampled_from(["text", "gzip", "cut gzip"]),
        cut=st.integers(0, 10**6),
    )
    def test_exit_0_or_2_naming_the_file(self, toy, ops, store, cut):
        data = Path(toy["arpa"]).read_bytes()
        for op, i, j in ops:
            data = _mutate(data, op, i, j)
        path = Path(toy["arpa"]).with_name("mutated.arpa" + (".gz" if "gzip" in store else ""))
        if store == "text":
            path.write_bytes(data)
        else:
            packed = gzip.compress(data, mtime=0)
            path.write_bytes(packed[: cut % (len(packed) + 1)] if store == "cut gzip" else packed)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main_decode(["--am", toy["am"], "--lm", toy["lm"], "--arpa", str(path),
                              "--features", toy["features"], "--beam", "4"])
        assert rc in (0, 2), err.getvalue()
        if rc == 2:
            assert err.getvalue().startswith(f"asr-decode: {path}: line "), err.getvalue()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return
        assert _outcome(parse_arpa, text) == _outcome(reference_parse_arpa, text)


class TestBackoff:
    def test_stored_trigram_exact(self):
        m = toy_model()
        assert log_prob(m, "A", ("A", "B")) == -0.2

    def test_backoff_recursion_hand_value(self):
        m = toy_model()
        # P(C|A,B) -> bow(A,B) + P(C|B) = -0.1 + -0.5
        assert log_prob(m, "C", ("A", "B")) == pytest.approx(-0.6, abs=1e-12)

    def test_double_backoff_to_unigram(self):
        m = toy_model()
        # P(B|B,C): no trigram, no bigram (C B), bow(B,C)=0, bow(C)=0
        assert log_prob(m, "B", ("B", "C")) == pytest.approx(-0.6, abs=1e-12)
        # P(A|C,A): bow(C,A)=0 missing bigram history; then bigram? (A A) absent
        # -> bow(A) + P(A) = -0.30103 + -0.5
        assert log_prob(m, "A", ("C", "A")) == pytest.approx(-0.80103, abs=1e-12)

    def test_empty_history_is_unigram(self):
        m = toy_model()
        assert log_prob(m, "B") == -0.6

    def test_unknown_word_floor(self):
        m = toy_model()
        # bow(A,B) + bow(B) + floor = -0.1 + -0.2 + -7.0
        assert log_prob(m, "ZZZ", ("A", "B")) == pytest.approx(
            -0.1 + -0.2 + m.unk_log10, abs=1e-12
        )

    def test_unk_entry_used_when_present(self):
        text = "\\data\\\nngram 1=2\n\\1-grams:\n-0.1 A\n-2.5 <unk>\n\\end\\\n"
        m = parse_arpa(io.StringIO(text))
        assert log_prob(m, "MISSING") == -2.5

    def test_never_positive(self):
        m = toy_model()
        for w in ("A", "B", "C", "OOV"):
            for hist in ((), ("A",), ("A", "B"), ("C", "C")):
                assert log_prob(m, w, hist) <= 0.0


class TestRescore:
    def test_zero_weights_zero_delta(self):
        m = toy_model()
        delta, hist = rescore(m, "C", ("A", "B"), lam=0.0, beta=0.0)
        assert delta == 0.0
        assert hist == ("B", "C")

    def test_hand_value_in_natural_log(self):
        m = toy_model()
        delta, hist = rescore(m, "C", ("A", "B"), lam=1.0, beta=0.0)
        assert delta == pytest.approx(-0.6 * math.log(10.0), abs=1e-12)
        assert hist == ("B", "C")

    def test_insertion_bonus_only(self):
        m = toy_model()
        delta, _ = rescore(m, "C", (), lam=0.0, beta=0.7)
        assert delta == 0.7

    def test_empty_word_no_effect(self):
        m = toy_model()
        delta, hist = rescore(m, "", ("A", "B"), lam=1.0, beta=0.7)
        assert delta == 0.0
        assert hist == ("A", "B")

    def test_works_without_model(self):
        delta, hist = rescore(None, "WORD", (), lam=1.0, beta=0.25)
        assert delta == 0.25
        assert hist == ("WORD",)


def test_serialize_round_trip():
    m = toy_model()
    buf = io.StringIO()
    write_arpa(m, buf)
    m2 = parse_arpa(io.StringIO(buf.getvalue()))
    assert m2.counts() == m.counts()
    for order, table in m.ngrams.items():
        for words, (logp, bow) in table.items():
            logp2, bow2 = m2.ngrams[order][words]
            assert logp2 == pytest.approx(logp, abs=1e-6)
            assert bow2 == pytest.approx(bow, abs=1e-6)


def test_recursion_terminates_within_order_steps():
    m = toy_model()
    # worst case: unseen trigram, unseen bigram, unseen unigram = 3 lookups
    assert log_prob(m, "Q", ("Q", "Q")) == m.unk_log10
