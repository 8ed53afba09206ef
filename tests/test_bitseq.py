import itertools
import random
import time
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from seqmeter.bitseq import (
    BitSequence, as_shifts, dumps, fold_extensions, loads, mask, pack, periodic_correlation, unpack,
)
from seqmeter.correlation import correlation_at
from seqmeter.generators import m_sequence


def test_mask():
    assert mask(0) == 0
    assert mask(1) == 1
    assert mask(7) == 0b1111111


def test_pack_unpack_bit_order():
    assert pack("110100") == 0b1011  # s_0 first
    assert unpack(0b1011, 6) == "110100"
    assert pack("") == 0 and unpack(0, 0) == ""
    # base-2 conversion is exempt from the int_max_str_digits limit
    assert unpack(pack("1" * 100_000), 100_000) == "1" * 100_000


@given(st.integers(min_value=0, max_value=300), st.data())
def test_pack_unpack_roundtrip(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = unpack(bits, n)
    assert len(s) == n and pack(s) == bits
    assert [int(c) for c in s] == [(bits >> i) & 1 for i in range(n)]


def test_from_int_and_bits():
    s = BitSequence.from_int(0b1011, 4)
    assert [s.bit(i) for i in range(4)] == [1, 1, 0, 1]  # bit i = s_i
    assert s.to01() == "1101"
    assert s.n == 4
    assert s.weight() == 3


def test_bit_wraps_with_period():
    s = BitSequence.from_int(0b011, 3, period=3)
    assert s.bit(3) == s.bit(0)
    assert s.bit(7) == s.bit(1)


def test_bit_out_of_range_without_period():
    s = BitSequence.from_int(0b011, 3)
    with pytest.raises(IndexError):
        s.bit(3)


def test_prefix():
    s = BitSequence.from_int(0b110101, 6)
    p = s.prefix(3)
    assert p.n == 3
    assert p.to01() == s.to01()[:3]


def test_minimal_period_exact_scan():
    # 101101 has minimal period 3; 1011 has none shorter than 3 (s0==s3)
    assert BitSequence.from_int(0b101101, 6).minimal_period() == 3
    assert BitSequence.from_int(0, 5).minimal_period() == 1
    # finite-prefix semantics: period p is minimal with s_i == s_{i+p} for i < n-p
    assert BitSequence.from_int(0b11, 2).minimal_period() == 1


def test_immutability():
    s = BitSequence.from_int(0b1, 1)
    with pytest.raises(AttributeError):
        s.data = 0


def test_dumps_declares_period():
    s = BitSequence.from_int(0b1011011, 7, period=7)
    text = dumps(s)
    assert text.splitlines()[0] == "period=7"
    assert loads(text) == s


def test_dumps_wraps_long_lines():
    s = BitSequence.from_int((1 << 200) - 1, 200)
    lines = dumps(s).splitlines()
    assert all(len(line) <= 64 for line in lines)
    assert loads(dumps(s)) == s


def test_loads_reports_first_stray_character():
    with pytest.raises(ValueError, match=r"^invalid character 'a' at offset 15$"):
        loads("period=3\n01 1\n0a1")
    # CR, LF and tab are whitespace, so the offset counts them
    with pytest.raises(ValueError, match=r"^invalid character '2' at offset 6$"):
        loads("0\r\n1\r\n2")
    assert loads("0\t1\r\n1\x0b0").to01() == "0110"
    # a non-ASCII stray character, and one after Unicode whitespace (no-break
    # space, ideographic space, line separator), which the offset counts too
    with pytest.raises(ValueError, match=r"^invalid character 'é' at offset 2$"):
        loads("01é0")
    with pytest.raises(ValueError, match=r"^invalid character '\\ud800' at offset 1$"):
        loads("0\ud8001")
    with pytest.raises(ValueError, match=r"^invalid character 'x' at offset 15$"):
        loads("period=2\n0\u00a01\u3000\u20280x1")
    assert loads("0\u00a01\u3000\u20281").to01() == "011"
    # the header line ends at any of str.splitlines' line boundaries
    with pytest.raises(ValueError, match=r"^invalid character 'x' at offset 10$"):
        loads("period=2\x850x1")
    with pytest.raises(ValueError, match=r"^invalid character 'x' at offset 11$"):
        loads("period=2\u2028 0x1")
    with pytest.raises(ValueError, match=r"^invalid character 'y' at offset 15$"):
        loads("period=2\r\n01\r\n0y")
    with pytest.raises(ValueError, match=r"^bad period line: 'period=x'$"):
        loads(" period=x \x850101")
    assert loads("\u2029period=2\r\n0101").period == 2


def loads_reference(text):
    """`loads` as it read the header before: every line of the text split off first."""
    period = None
    body_start = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if not stripped:
            body_start += len(line)
            continue
        if stripped.startswith("period="):
            try:
                period = int(stripped[len("period="):])
            except ValueError:
                raise ValueError(f"bad period line: {stripped!r}") from None
            body_start += len(line)
        break
    body = "".join(text[body_start:].split())
    if body.encode("ascii", "replace").translate(None, b"01"):
        ch = body.lstrip("01")[0]
        raise ValueError(f"invalid character {ch!r} at offset {text.index(ch, body_start)}")
    return BitSequence.from_int(pack(body), len(body), period)


def _loaded_or_error(load, text):
    try:
        return load(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500)
@given(st.lists(st.sampled_from([
    "0", "1", "01", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
    "\x1f", "\x85", "\u00a0", "\u2028", "\u2029", "period=", "2", "-", "x",
]), max_size=12))
def test_loads_matches_splitlines_reference(parts):
    text = "".join(parts)
    assert _loaded_or_error(loads, text) == _loaded_or_error(loads_reference, text)


def test_loads_empty():
    s = loads("")
    assert s.n == 0 and s.period is None and s.to01() == ""


def test_constructor_names_first_bad_bit():
    with pytest.raises(ValueError, match=r"^bit 3 is '1', expected 0 or 1$"):
        BitSequence([1, True, 0, "1"])
    assert BitSequence([1, True, 0, False]).to01() == "1100"


def test_long_roundtrip_is_linear():
    # 2,097,150 bits; a per-bit codec takes minutes here, the linear one ~0.05 s
    s = m_sequence(20)
    start = time.perf_counter()
    assert loads(dumps(s)) == s
    assert time.perf_counter() - start < 2


def test_loads_rejects_junk():
    with pytest.raises(ValueError):
        loads("01012")
    with pytest.raises(ValueError):
        loads("period=x\n0101")
    with pytest.raises(ValueError):
        loads("period=2\n0110")  # s_2 != s_0 under the declared period


@given(st.integers(min_value=1, max_value=300), st.data())
def test_roundtrip(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = BitSequence.from_int(bits, n)
    assert loads(dumps(s)) == s


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=5), st.data())
def test_roundtrip_periodic(period, reps, data):
    block = data.draw(st.integers(min_value=0, max_value=(1 << period) - 1))
    out = 0
    for r in range(reps):
        out |= block << (r * period)
    s = BitSequence.from_int(out, period * reps, period=period)
    assert loads(dumps(s)) == s


@given(st.integers(min_value=0, max_value=200), st.data())
def test_iteration_and_repr_match_to01(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = BitSequence.from_int(bits, n)
    assert "".join(map(str, s)) == s.to01()
    assert BitSequence(s) == s
    assert repr(s).startswith(f"BitSequence({s.to01()[:32]}{'...' if n > 32 else ''}, n={n}")


@given(st.integers(min_value=1, max_value=200), st.data())
def test_weight_matches_string(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = BitSequence.from_int(bits, n)
    assert s.weight() == s.to01().count("1")


@given(st.integers(min_value=1, max_value=64), st.data())
def test_minimal_period_is_a_period(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = BitSequence.from_int(bits, n)
    p = s.minimal_period()
    assert 1 <= p <= n
    assert all(s.bit(i) == s.bit(i + p) for i in range(n - p))


def test_shiftset_validation():
    assert as_shifts((0, 2, 5)) == (0, 2, 5)
    with pytest.raises(ValueError):
        as_shifts((2, 2))
    with pytest.raises(ValueError):
        as_shifts((3, 1))
    with pytest.raises(ValueError):
        as_shifts((-1, 0))
    with pytest.raises(ValueError):
        as_shifts(())
    assert as_shifts(iter([1, 4])) == (1, 4)


def test_fold_extensions_match_combinations():
    # every head below start, every size, every end <= 10: the same prefixes in
    # the same order as combinations, each with the XOR of its values
    values = [random.Random(j).getrandbits(32) for j in range(10)]
    for end in range(11):
        for start in range(end + 1):
            for head in itertools.chain.from_iterable(
                    itertools.combinations(range(start), r) for r in range(start + 1)):
                for size in range(len(head), len(head) + end - start + 1):
                    expected = [(head + added, reduce(xor, (values[j] for j in head + added), 0))
                                for added in itertools.combinations(range(start, end),
                                                                    size - len(head))]
                    assert list(fold_extensions(values, head, size, start, end)) == expected, \
                        (head, start, size, end)


def test_periodic_correlation_matches_correlation_at_over_two_periods():
    # every block and every shift set in 0..T of every period T <= 8
    for t in range(1, 9):
        sets = [d for k in range(1, t + 2) for d in itertools.combinations(range(t + 1), k)]
        for block in range(1 << t):
            two = BitSequence.from_int(block | block << t, 2 * t)
            for d in sets:
                assert periodic_correlation(block, t, d) == correlation_at(two, t, d), (t, block, d)
