"""The compiled LIBSVM parser against the pure-Python parser it replaced,
fuzzed with hypothesis.

``python_parse`` is that parser's token loop, kept here as the reference,
as ``tests/test_kernel.py`` keeps the numpy step kernel. The texts are
ASCII without ``_``: there the two grammars agree by design, while Python
reads ``1_0`` as 10 (``test_dataset.TestGrammar`` covers that change).
Lines mix all eight line breaks, comments (also inside a token), blank and
label-only lines, explicit zeros, signs, leading zeros, exponents,
``inf``/``infinity``/``nan`` in any case, every kind of malformed token,
raw ASCII noise, digit runs of 7 to 20 digits (around the compiled
parser's 8-digit blocks) and indices of 18 and 19 digits. Both parsers
must give the same ``Dataset`` bit for bit or the same error: a
``ParseError``, or the ``NonFiniteError`` that both ``Dataset``s raise for
a NaN or infinite label or row norm, or the ``ValueError`` that both raise
for a d above 2**31 - 1. The examples are derandomized, so a run is
reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsdca.dataset import Dataset, ParseError, parse_libsvm

BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"]
BLANKS = [" ", "\t", "\x1f"]


def python_parse(text: str, n_features=None) -> Dataset:
    """The pure-Python parser that ``dataset.parse_libsvm`` ran before the
    compiled one: one ``float``/``int`` call per token."""
    labels, indptr, idx, val = [], [0], [], []
    max_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric label {parts[0]!r}")
        prev = 0
        for tok in parts[1:]:
            head, sep, tail = tok.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: expected idx:val, got {tok!r}")
            try:
                j = int(head)
                x = float(tail)
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric token {tok!r}")
            if j < 1:
                raise ParseError(f"line {lineno}: index {j} is not 1-based")
            if j <= prev:
                raise ParseError(f"line {lineno}: non-increasing indices")
            prev = j
            if x != 0.0:
                idx.append(j - 1)
                val.append(x)
        max_index = max(max_index, prev)
        labels.append(label)
        indptr.append(len(idx))
    if not labels:
        raise ParseError("empty input: no data lines")
    d = max_index if n_features is None else int(n_features)
    if d < max_index:
        raise ParseError(f"n_features={n_features} smaller than max index {max_index}")
    return Dataset(np.array(indptr, dtype=np.int64), np.array(idx, dtype=np.int64),
                   np.array(val, dtype=np.float64), labels, max(d, 1))


def outcome(parse, text):
    """The arrays a parse gives, floats as their bits, or its error: a
    ``ParseError``, or the ``Dataset``'s ``NonFiniteError`` for a NaN or
    infinite label, or a row whose norm is not finite (a NaN or infinite
    value, or one near 1e200 whose square overflows), or its ``ValueError``
    for a d too large for int32 CSR."""
    try:
        ds = parse(text)
    except ValueError as exc:  # ParseError and NonFiniteError are ones
        return f"{type(exc).__name__}: {exc}"
    return (ds.d, ds.labels.view(np.int64).tolist(), ds.indptr.tolist(),
            ds.indices.tolist(), ds.data.view(np.int64).tolist())


def cased(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda up: "".join(c.upper() if u else c for c, u in zip(word, up)))


signs = st.sampled_from(["", "+", "-"])
digits = st.text("0123456789", min_size=1, max_size=20)
decimal = st.one_of(
    digits,
    st.tuples(digits, digits).map(".".join),
    digits.map(lambda s: "." + s),
    digits.map(lambda s: s + "."),
)
exponent = st.one_of(st.just(""), st.tuples(st.sampled_from("eE"), signs, digits)
                     .map("".join))
# digit runs on both sides of the parser's 8-digit blocks and of the 19
# digits its fast path holds, some after leading zeros that span a block
runs = st.sampled_from([7, 8, 9, 15, 16, 17, 19, 20]).flatmap(
    lambda k: st.text("0123456789", min_size=k, max_size=k))
long_decimal = st.tuples(st.sampled_from(["", "0.", "0.000000000", "00000000.", "1"]),
                         runs).map("".join)
number = st.one_of(
    st.tuples(signs, decimal, exponent).map("".join),
    st.tuples(signs, long_decimal, exponent).map("".join),
    st.tuples(signs, st.sampled_from(["inf", "infinity", "nan"]).flatmap(cased))
    .map("".join),
    st.sampled_from(["0", "-0", "0.0", "+0e7", "00", "1e-400", "-1e-400", "1e400"]),
)
# one of each malformed kind, and fragments that are almost numbers
malformed = st.sampled_from([
    "", ":", "1:", ":5", "1:2:3", "a:1", "1:a", "1:1e", "1:.", "1:+", "1:-.e1",
    "1:1.2.3", "1:infx", "1:in", "1:nan1", "1e1:1", "1.0:1", "+:1", "1:\x00",
    "\x7f", "5", "abc", "0x1p3", "1:0x10", "1:nan(1)", "1:--1", "1 :2", "-", ".",
    "e5", "1:1e+", "-" + "9" * 30 + ":1",
])
ASCII = "".join(chr(c) for c in range(128) if chr(c) != "_")
noise = st.text(ASCII, max_size=12)
comment = st.text("".join(c for c in ASCII if c not in "".join(BREAKS)), max_size=8)


@st.composite
def entry(draw, prev):
    """An idx:val token, its index mostly above ``prev``."""
    kind = draw(st.integers(0, 29))
    if kind == 0:  # below 2**63, where the Python parser overflowed
        head = draw(st.tuples(signs, st.text("0123456789", min_size=1, max_size=18))
                    .map("".join))
    elif kind == 1 and prev < 2**63 - 1:  # 18 and 19 digits, up to 2**63 - 1
        head = str(draw(st.integers(max(prev + 1, 10**17), 2**63 - 1)))
    elif kind == 2:
        head = str(draw(st.integers(-3, prev)))
    else:
        head = draw(st.sampled_from(["", "", "0", "00"])) + str(prev + draw(st.integers(1, 4)))
    return head, head + ":" + draw(number)


@st.composite
def lines(draw):
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return draw(noise)
    if kind == 1:
        return draw(st.sampled_from(BLANKS)) * draw(st.integers(0, 2))
    tokens = [draw(malformed if kind == 2 else number)]
    prev = 0
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 29)) == 0:
            tokens.append(draw(malformed))
            continue
        head, tok = draw(entry(prev))
        prev = max(prev, int(head or 0))
        tokens.append(tok)
    text = ""
    for tok in tokens:
        text += draw(st.sampled_from(BLANKS)) * draw(st.integers(0 if not text else 1, 2))
        text += tok
    if draw(st.integers(0, 3)) == 0:  # a comment, mostly at the end
        cut = draw(st.sampled_from([len(text), len(text), len(text), 0]))
        cut = draw(st.integers(0, len(text))) if cut == 0 else cut
        text = text[:cut] + "#" + draw(comment)
    return text + draw(st.sampled_from(BLANKS)) * draw(st.integers(0, 1))


@st.composite
def texts(draw):
    body = draw(st.lists(lines(), min_size=1, max_size=6))
    seps = draw(st.lists(st.sampled_from(BREAKS), min_size=len(body), max_size=len(body)))
    text = "".join(line + sep for line, sep in zip(body, seps))
    return text if draw(st.booleans()) else text.rstrip("".join(BREAKS))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(text=texts())
def test_compiled_parser_equals_python_parser(text):
    assert outcome(parse_libsvm, text) == outcome(python_parse, text)


@pytest.mark.parametrize("text", [
    "1 1:nan 2:-nan 3:+NaN\n-NAN 2:-Infinity\n+inf\n",
    "-0 1:-0.0 2:1e-320 3:4.9e-324 4:2.4703282292062328e-324\n",
    "1 1:0.1000000000000000055511151231257827 2:" + "1" * 400 + "e-399\n",
    "0.30000000000000004 7:9007199254740993 9:2.2250738585072011e-308\n",
])
def test_compiled_parser_equals_python_parser_on_hard_values(text):
    # NaN and infinities (which the Dataset rejects), subnormals, halfway
    # cases and long mantissas
    assert outcome(parse_libsvm, text) == outcome(python_parse, text)
