"""ARPA back-off n-gram reader and word-level rescorer.

Reads standard ARPA text (optionally gzip-compressed) up to tri-grams and
answers log10 conditional probabilities with the usual back-off recursion:
a missing n-gram falls back to the (n-1)-gram scaled by the history's
back-off weight, a missing back-off weight counts as 0.0 (weight 1), and
unknown words at order 1 map to the <unk> entry when present, else to a
configurable floor. Queries never fail; the model is immutable after parse
and safe to share across threads.
"""

from __future__ import annotations

import gzip
import io
import math
import zlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "ArpaModel",
    "ArpaParseError",
    "parse_arpa",
    "parse_arpa_file",
    "write_arpa",
    "log_prob",
    "rescore",
    "next_history",
]

LN10 = math.log(10.0)
UNK = "<unk>"
DEFAULT_UNK_LOG10 = -7.0


class ArpaParseError(ValueError):
    """An error at line `line` of an ARPA text, of the file `path` when it
    is known."""

    def __init__(self, message: str, line: int, path=None):
        where = f"line {line}" if path is None else f"{path}: line {line}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.line = line


@dataclass
class ArpaModel:
    """Unigram/bigram/trigram tables of (log10 prob, log10 back-off)."""

    order: int
    ngrams: dict = field(default_factory=dict)  # order -> {words tuple: (logp, bow)}
    unk_log10: float = DEFAULT_UNK_LOG10

    @property
    def vocab(self):
        return {w[0] for w in self.ngrams.get(1, ())}

    def counts(self):
        return {n: len(table) for n, table in self.ngrams.items()}

    def lookup(self, words: Tuple[str, ...]):
        return self.ngrams.get(len(words), {}).get(words)


def parse_arpa(stream) -> ArpaModel:
    """Parse an ARPA model from an iterable of text lines.

    Enforces the \\data\\ header counts; malformed content is reported with
    its line number. Each n-gram section is read by _entries, up to the
    marker line that ends it.
    """
    declared = {}
    ngrams = {}
    section = None  # None | "data" | order int | "done"
    lineno = 0
    lines = enumerate(stream, 1)
    for lineno, raw in lines:
        line = raw.strip()
        while line:  # a header hands on the marker line that ends its section
            if line == "\\data\\":
                section = "data"
            elif line.endswith("-grams:") and line.startswith("\\"):
                try:
                    order = int(line[1:].split("-")[0])
                except ValueError:
                    raise ArpaParseError(f"bad section header {line!r}", lineno)
                if order not in declared:
                    raise ArpaParseError(f"section {line!r} was not declared in \\data\\", lineno)
                _check_section_complete(declared, ngrams, lineno, upto=order)
                section = order
                ngrams[order] = {}
                lineno, line = _entries(lines, order, ngrams[order], declared[order], lineno)
                continue
            elif line == "\\end\\":
                _check_section_complete(declared, ngrams, lineno, upto=None)
                section = "done"
            elif section == "data":
                if not line.startswith("ngram"):
                    raise ArpaParseError(f"expected 'ngram N=count', got {line!r}", lineno)
                try:
                    spec = line.split(None, 1)[1]
                    order_s, count_s = spec.split("=")
                    declared[int(order_s)] = int(count_s)
                except (IndexError, ValueError):
                    raise ArpaParseError(f"malformed count line {line!r}", lineno)
            else:
                raise ArpaParseError(f"unexpected content {line!r} before \\data\\", lineno)
            break

    if section != "done":
        raise ArpaParseError("missing \\end\\ marker", lineno + 1)
    if not declared:
        raise ArpaParseError("missing \\data\\ header", lineno + 1)
    order = max(declared)
    if order > 3:
        raise ArpaParseError(f"order {order} not supported (tri-gram maximum)", lineno)
    model = ArpaModel(order=order, ngrams=ngrams)
    unk = model.lookup((UNK,))
    if unk is not None:
        model.unk_log10 = unk[0]
    return model


def _entries(lines, n: int, table: dict, limit: int, lineno: int):
    """Read the entries of an n-gram section from lines, (line number, text)
    pairs, into table, at most limit of them. Return the number and the
    stripped text of the marker line (\\data\\, \\end\\ or a section header)
    that ends the section, or the last line number and "" at the end of
    lines."""
    n1, n2 = n + 1, n + 2
    for lineno, raw in lines:
        fields = raw.split()
        if not fields:
            continue
        if fields[0][0] == "\\":
            line = raw.strip()
            if line == "\\data\\" or line == "\\end\\" or line.endswith("-grams:"):
                return lineno, line
        if len(fields) == n1:
            bow = 0.0
        elif len(fields) == n2:
            try:
                bow = float(fields[n1])
            except ValueError:
                raise ArpaParseError(f"non-numeric back-off weight {fields[n1]!r}", lineno)
        else:
            raise ArpaParseError(
                f"expected {n1} or {n2} fields for a {n}-gram, got {len(fields)}", lineno
            )
        try:
            logp = float(fields[0])
        except ValueError:
            raise ArpaParseError(f"non-numeric log probability {fields[0]!r}", lineno)
        if len(table) >= limit:
            raise ArpaParseError(f"more {n}-grams than the declared {limit}", lineno)
        table[tuple(fields[1:n1])] = (logp, bow)
    return lineno, ""


def _check_section_complete(declared, ngrams, lineno, upto):
    for order, count in declared.items():
        if upto is not None and order >= upto:
            continue
        got = len(ngrams.get(order, ()))
        if order not in ngrams and count == 0:
            continue
        if got != count:
            raise ArpaParseError(
                f"\\data\\ declared {count} {order}-grams but {got} were listed", lineno
            )


def parse_arpa_file(path) -> ArpaModel:
    """The model of an ARPA file, gzip-compressed when its name ends in .gz.
    Every error is an ArpaParseError of the form "<path>: line N: ...": a
    parse_arpa error; a byte that is not UTF-8 text, at its line; a .gz
    file that is not gzip or whose stream is cut short or corrupt, at the
    first line that could not be read. A missing or unreadable file raises
    the OSError of open, which names it."""
    opener = gzip.open if str(path).endswith(".gz") else open
    chunks = []
    with opener(path, "rb") as fh:
        try:
            while chunk := fh.read1():
                chunks.append(chunk)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise ArpaParseError(str(exc), _line_at(b"".join(chunks)), path) from None
    data = b"".join(chunks)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = data[exc.start]
        raise ArpaParseError(f"byte 0x{bad:02x} is not UTF-8 text ({exc.reason})",
                             _line_at(data[: exc.start]), path) from None
    try:
        # newline=None: line ends as in a file opened in text mode
        return parse_arpa(io.StringIO(text, newline=None))
    except ArpaParseError as exc:
        raise ArpaParseError(exc.message, exc.line, path) from None


def _line_at(data: bytes) -> int:
    """The number of the line that data, a file's leading bytes, ends in:
    one more than its line ends (\\n, \\r\\n or a lone \\r)."""
    return 1 + data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def write_arpa(model: ArpaModel, fh):
    """Serialize back to ARPA text (entry order follows the tables)."""
    fh.write("\\data\\\n")
    for order in range(1, model.order + 1):
        fh.write(f"ngram {order}={len(model.ngrams.get(order, {}))}\n")
    for order in range(1, model.order + 1):
        fh.write(f"\n\\{order}-grams:\n")
        for words, (logp, bow) in model.ngrams.get(order, {}).items():
            tail = "" if bow == 0.0 else f"\t{bow:.6f}"
            fh.write(f"{logp:.6f}\t{' '.join(words)}{tail}\n")
    fh.write("\n\\end\\\n")


def log_prob(model: ArpaModel, word: str, history: Tuple[str, ...] = ()) -> float:
    """log10 P(word | history) with back-off; history is up to two words,
    oldest first. Total function: unknown words hit <unk> or the floor."""
    history = tuple(history)[-(model.order - 1) :] if model.order > 1 else ()
    return _backoff(model, word, history)


def _backoff(model: ArpaModel, word: str, history: Tuple[str, ...]) -> float:
    entry = model.lookup(history + (word,))
    if entry is not None:
        return entry[0]
    if not history:
        unk = model.lookup((UNK,))
        return unk[0] if unk is not None else model.unk_log10
    hist_entry = model.lookup(history)
    bow = hist_entry[1] if hist_entry is not None else 0.0
    return bow + _backoff(model, word, history[1:])


def rescore(
    model: Optional[ArpaModel],
    word: str,
    history: Tuple[str, ...],
    lam: float = 1.0,
    beta: float = 0.0,
):
    """Score delta (natural log) for a just-completed word, plus the shifted
    history. Empty words (consecutive delimiters) contribute nothing."""
    if not word:
        return 0.0, history
    delta = beta
    if model is not None and lam != 0.0:
        delta += lam * log_prob(model, word, history) * LN10
    return delta, next_history(word, history)


def next_history(word: str, history: Tuple[str, ...]) -> Tuple[str, ...]:
    """The history after word completes: the last two words. An empty word
    (consecutive delimiters) leaves it as it is."""
    if not word:
        return history
    return (tuple(history) + (word,))[-2:]
