"""The compiled parser's number readers against Python's ``float()`` and
``int()``, bit for bit.

A value with at most 19 significant digits and a decimal exponent in
[-342, 308] is converted by Eisel-Lemire against ``_kernel.pow5_table``;
every other value falls back to ``strtod_l``. So the numbers here are
chosen to sit on both sides of each boundary: random bit patterns in four
formats, exact midpoints of neighbouring doubles (ties) in full and cut,
powers of ten past both ends of the table, 2**53 +- k, the edges of the
normal range, signed zeros and leading zeros. Each number is parsed as a
label and as a value, and the bits are compared through
``.view(np.int64)``. The draws are seeded, so a run is reproducible.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from dfsdca import _kernel
from dfsdca.dataset import ParseError


def assert_bits(words):
    """Parse each string as a label and as the value of index 1, one line
    each, and compare both with ``float()`` bitwise (explicit zero values
    are dropped, as the parser drops them)."""
    text = "\n".join(f"{w} 1:{w}" for w in words).encode()
    labels, indptr, indices, data, _ = _kernel.parse_libsvm(text)
    want = np.array([float(w) for w in words])
    got, expect = labels.view(np.int64), want.view(np.int64)
    bad = np.flatnonzero(got != expect)
    assert bad.size == 0, [(words[i], labels[i], want[i]) for i in bad[:5]]
    assert np.array_equal(indptr, np.cumsum(np.r_[0, want != 0.0]))
    assert np.array_equal(data.view(np.int64), want[want != 0.0].view(np.int64))
    assert np.all(indices == 0)


def test_random_bit_patterns_in_four_formats():
    rng = np.random.default_rng(2101_11408)
    x = rng.integers(0, 2**64, 101_000, dtype=np.uint64, endpoint=False).view(np.float64)
    x = x[np.isfinite(x)][:100_000].tolist()
    assert len(x) == 100_000
    # shortest round trip, the 17 digits that always round trip, 12 digits
    # (inexact, fast path), and 20 digits (always the fallback)
    for fmt in (repr, "%.17g".__mod__, "%.12g".__mod__, "%.19e".__mod__):
        assert_bits([fmt(v) for v in x])


def significand(d: Decimal) -> tuple[str, int]:
    """Digits and exponent of ``d > 0``: ``d == int(digits) * 10**exp``."""
    _, digits, exp = d.as_tuple()
    return "".join(map(str, digits)), exp


def test_midpoints_of_neighbouring_doubles():
    rng = np.random.default_rng(2212_06644)
    # every binade, and integers near 2**53 .. 2**63, whose midpoints are
    # short enough (at most 19 digits) for the fast path's tie test
    x = rng.integers(1, 2**63 - 2**52, 3000).view(np.float64)  # positive, finite
    x = np.r_[x, np.ldexp(rng.random(1000) + 1.0, rng.integers(40, 64, 1000))]
    words = []
    with localcontext() as ctx:
        ctx.prec = 1200  # a midpoint's exact expansion has under 800 digits
        for a in x[np.isfinite(x)]:
            b = np.nextafter(a, np.inf)
            if not np.isfinite(b):
                continue
            digits, exp = significand((Decimal(a) + Decimal(b)) / 2)
            words.append(f"{digits}e{exp}")
            for cut in (19, 20):
                if len(digits) > cut:
                    words.append(f"{digits[:cut]}e{exp + len(digits) - cut}")
                    # the cut rounded up by one unit: just above the midpoint
                    words.append(f"{int(digits[:cut]) + 1}e{exp + len(digits) - cut}")
    assert_bits(words)


def exact_ties():
    """Strings ``{w}e{q}`` that lie exactly halfway between two doubles,
    with w < 10**19 and q in [-4, 23], and their neighbours w +- 1.

    Only there can Eisel-Lemire meet a tie. A tie is m * 2**e with m odd
    of 54 bits, so w * 10**q = m * 2**e needs 5**q to divide m where
    q > 0, and w = m * 5**-q * 2**(e - q) < 10**19 where q < 0."""
    words, rounded_up = [], 0
    for q in range(-4, 24):
        f = 5 ** abs(q)
        if q >= 0:
            # the smallest and largest odd r with r * f of 54 bits
            lo, hi = -(-(2**53) // f) | 1, (2**54 - 1) // f
            hi -= 1 - hi % 2
            cases = [(r * f, r << t, q + t) for r in {lo, hi} for t in (0, 3)]
        else:
            ms = (2**53 + 1, 2**53 + 3, 2**53 + 2**40 + 1)
            cases = [(m, m * f << t, q + t) for m in ms for t in (0, 2)]
        for m, w, e in cases:
            if w >= 10**19:
                continue
            tie = Fraction(m) * Fraction(2) ** e
            assert Fraction(w) * Fraction(10) ** q == tie
            nearest = Fraction(float(f"{w}e{q}"))
            assert abs(nearest - tie) == Fraction(2) ** e  # half an ulp
            rounded_up += nearest > tie
            words += [f"{w + k}e{q}" for k in (-1, 0, 1)]
    # ties to even go both ways
    assert 0 < rounded_up < len(words) // 3
    return words


def test_exact_ties_round_to_even():
    assert_bits(exact_ties())


def test_powers_of_ten_past_both_ends_of_the_table():
    # and exponents that saturate the reader, or have leading zeros
    assert_bits([f"1e{k}" for k in range(-350, 321)]
                + ["1e99999999", "1e100000000", "-1e-100000000", "1e" + "0" * 30 + "5",
                   "0." + "0" * 400 + "1e+00000000000000000000000000400"])


def test_integers_around_two_to_the_53():
    assert_bits([str(2**53 + k) for k in range(-64, 65)]
                + [str(-(2**54) + k) for k in range(-64, 65)])


def test_edges_of_the_normal_range():
    assert_bits(["2.2250738585072011e-308", "2.2250738585072014e-308", "4.9e-324",
                 "2.4703282292062328e-324", "1.7976931348623157e308",
                 "1.7976931348623158e308", "1.7976931348623159e308"])


def test_signed_zeros_and_leading_zeros():
    assert_bits(["-0", "+0", "-0.0", "0.", "-.0", "-0e-5", "0e99999999999999999999",
                 "007", "-007.50", "000.000125", "0" * 30 + "1", "-00.00e00",
                 "0." + "0" * 30 + "1234567890123456789",
                 "1234567890123456789" + "0" * 10, "0" * 25 + "12345678901234567890"])


@pytest.mark.parametrize("index, outcome", [
    ("+0", "index 0 is not 1-based"),
    ("-0", "index 0 is not 1-based"),
    ("0" * 40, "index 0 is not 1-based"),
    ("007", 7),
    ("0" * 40 + "1", 1),
    ("9223372036854775807", 2**63 - 1),
    ("9223372036854775808", "index 9223372036854775808 exceeds 2**63 - 1"),
    ("99999999999999999999", "index 99999999999999999999 exceeds 2**63 - 1"),
    ("-9223372036854775809", "index -9223372036854775809 is not 1-based"),
])
def test_index_limits(index, outcome):
    # what strtoll gave: a '-' or a zero is not 1-based, however long
    text = f"1 {index}:2.5".encode()
    if isinstance(outcome, str):
        with pytest.raises(ParseError) as exc:
            _kernel.parse_libsvm(text)
        assert str(exc.value) == f"line 1: {outcome}"
    else:
        _, _, indices, _, max_index = _kernel.parse_libsvm(text)
        assert indices.tolist() == [outcome - 1] and max_index == outcome


def test_pow5_table_entries():
    table = _kernel.pow5_table()
    assert table.shape == (651, 2) and not table.flags.writeable
    for q, (hi, lo) in zip(range(-342, 309), table.tolist()):
        t = hi << 64 | lo
        x = Fraction(5) ** q
        e = 127 - (x.numerator.bit_length() - x.denominator.bit_length())
        while x * Fraction(2) ** e >= 2**128:
            e -= 1
        while x * Fraction(2) ** e < 2**127:
            e += 1
        scaled = x * Fraction(2) ** e  # in [2**127, 2**128)
        if -27 <= q < 0:
            assert t - 1 < scaled < t, q  # rounded up
        else:
            assert t <= scaled < t + 1, q  # truncated
    # fast_float's first and last entries
    assert table[0].tolist() == [0xEEF453D6923BD65A, 0x113FAA2906A13B3F]
    assert table[-1].tolist() == [0x8E679C2F5E44FF8F, 0x570F09EAA7EA7648]
