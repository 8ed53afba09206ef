"""Binary sequences as packed integers, plus the on-disk text format.

Bits are packed little-endian into a single Python int: bit i of ``data``
is s_i.  CPython stores big ints as arrays of machine words, so XOR, AND
and ``int.bit_count()`` on ``data`` are word-parallel; every correlation
sum and recurrence check downstream runs on these packed words instead of
per-bit loops.

`pack` and `unpack` are the one place where that bit order meets a
string of '0'/'1' characters, s_0 first; every conversion between such
strings and packed ints goes through them.  Both are linear: CPython
parses and prints power-of-two bases by copying bits, with no base
conversion and no `int_max_str_digits` limit.  Building an int with
``|= 1 << i`` or reading it with ``(data >> i) & 1`` copies the whole
word at every bit and goes quadratic.  Two kernels read other forms
directly: `complexity._bm_run` and `_quiet` parse runs of 0/1 bytes
with ``int(..., 2)``, which puts the first bit highest, into the
reversed register of Berlekamp-Massey, and `correlation._walk_extremes`
reads a row's bytes through ``int.to_bytes``.

`periodic_correlation` re-folds a shift set over two periods, the check
that every periodic answer (a measure's witness, a full peak) passes.

`fold_extensions` enumerates increasing index tuples with the XOR of
their packed values, sharing the folds of common leading indices.  The
correlation scans (shift sets over shifted copies) and the dual search in
`codes` (supports over syndrome columns) both walk their sets with it.

File format: an optional first line ``period=T``, then the characters
'0' and '1' with arbitrary whitespace.  The writer emits 64 characters
per line.  The reader checks the body in C: it encodes it to ASCII, any
other character becoming '?', and deletes the bytes '0' and '1'; only
when something is left does it look for the first stray character.
"""

from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator

BITS_PER_LINE = 64


def mask(n: int) -> int:
    """Bitmask with the n low bits set."""
    return (1 << n) - 1


def pack(s: str) -> int:
    """The int whose bit i is s[i], for a string of '0' and '1' only."""
    return int(s[::-1] or "0", 2)


def unpack(data: int, n: int) -> str:
    """Bits 0..n-1 of data as '0'/'1' characters, bit 0 first; needs data < 2**n."""
    return bin(data | 1 << n)[:2:-1]


class BitSequence:
    """Immutable binary word with an optional declared period.

    The period is caller-supplied metadata, never inferred.  Declaring it
    asserts s[i+T] == s[i] wherever both indices are in range; construction
    fails if the stored bits contradict the declaration.
    """

    __slots__ = ("data", "n", "period")

    def __init__(self, bits: Iterable[int], period: int | None = None):
        chars = []
        for b in bits:
            if b == 1:
                chars.append("1")
            elif b == 0:
                chars.append("0")
            else:
                raise ValueError(f"bit {len(chars)} is {b!r}, expected 0 or 1")
        self._init(pack("".join(chars)), len(chars), period)

    def _init(self, data: int, n: int, period: int | None) -> None:
        if period is not None:
            if period < 1:
                raise ValueError(f"period must be >= 1, got {period}")
            if n > period and ((data >> period) ^ data) & mask(n - period):
                raise ValueError(
                    f"declared period {period} is inconsistent with the stored bits"
                )
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "period", period)

    @classmethod
    def from_int(cls, data: int, n: int, period: int | None = None) -> "BitSequence":
        """Wrap an already packed word (bit i = s_i) without re-iterating bits."""
        if n < 0:
            raise ValueError("length must be >= 0")
        if data < 0 or data >> n:
            raise ValueError("data has bits beyond the stated length")
        self = cls.__new__(cls)
        self._init(data, n, period)
        return self

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return (self.data, self.n, self.period) == (other.data, other.n, other.period)

    def __hash__(self) -> int:
        return hash((self.data, self.n, self.period))

    def __repr__(self) -> str:
        head = unpack(self.data & mask(32), min(self.n, 32))
        tail = "..." if self.n > 32 else ""
        per = f", period={self.period}" if self.period is not None else ""
        return f"BitSequence({head}{tail}, n={self.n}{per})"

    def __iter__(self) -> Iterator[int]:
        return map(int, self.to01())

    def __setattr__(self, name, value):
        raise AttributeError("BitSequence is immutable")

    def bit(self, i: int) -> int:
        """s_i, reducing i modulo the declared period when one exists."""
        if 0 <= i < self.n:
            return (self.data >> i) & 1
        if self.period is None:
            raise IndexError(f"index {i} out of range for length {self.n} and no declared period")
        i %= self.period
        if i >= self.n:
            raise IndexError(f"index {i} (mod {self.period}) beyond stored length {self.n}")
        return (self.data >> i) & 1

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range for length {self.n}")
        return (self.data >> i) & 1

    def prefix(self, n: int) -> "BitSequence":
        """First n bits, keeping the declared period."""
        if not 0 <= n <= self.n:
            raise ValueError(f"prefix length {n} out of range 0..{self.n}")
        return BitSequence.from_int(self.data & mask(n), n, self.period)

    def weight(self) -> int:
        return self.data.bit_count()

    def period_block(self) -> int:
        """The first period's bits; ValueError unless a period is declared and fully stored."""
        if self.period is None:
            raise ValueError("sequence needs a declared period")
        if self.n < self.period:
            raise ValueError(f"sequence needs a full period: {self.n} of {self.period} bits stored")
        return self.data & mask(self.period)

    def minimal_period(self) -> int:
        """Smallest p >= 1 with s[i+p] == s[i] for every i with i+p < n.

        Exact scan over all candidate p.  For a purely periodic sequence
        rendered over at least two full periods this equals the minimal
        period of the infinite sequence.
        """
        if self.n == 0:
            return 0
        d, n = self.data, self.n
        for p in range(1, n):
            if not ((d >> p) ^ d) & mask(n - p):
                return p
        return n

    def to01(self) -> str:
        return unpack(self.data, self.n)


def loads(text: str) -> BitSequence:
    """Parse the text sequence format.

    Only the first non-blank line is read as a line, for the header: it
    ends at the first of `str.splitlines`' line boundaries.  The body's
    whitespace is dropped wherever it is, so the body starts where the
    header's line ends, or at the first non-blank character.
    """
    period = None
    body_start = len(text) - len(text.lstrip())
    if text.startswith("period=", body_start):
        # the header ends at its first line boundary, no later than the first
        # "\n"; each is one character, or "\r\n", whose "\n" is whitespace
        end = text.find("\n", body_start)
        line = text[body_start:end if end >= 0 else len(text)].splitlines()[0]
        body_start += len(line) + 1
        line = line.rstrip()
        try:
            period = int(line[len("period="):])
        except ValueError:
            raise ValueError(f"bad period line: {line!r}") from None
    body = "".join(text[body_start:].split())
    if body.encode("ascii", "replace").translate(None, b"01"):
        # the first stray character is not whitespace, so it occurs nowhere earlier
        ch = body.lstrip("01")[0]
        raise ValueError(f"invalid character {ch!r} at offset {text.index(ch, body_start)}")
    return BitSequence.from_int(pack(body), len(body), period)


def dumps(seq: BitSequence) -> str:
    out = []
    if seq.period is not None:
        out.append(f"period={seq.period}\n")
    s = seq.to01()
    for i in range(0, len(s), BITS_PER_LINE):
        out.append(s[i : i + BITS_PER_LINE])
        out.append("\n")
    return "".join(out)


def load(path: str | Path) -> BitSequence:
    return loads(Path(path).read_text())


def save(seq: BitSequence, path: str | Path) -> None:
    Path(path).write_text(dumps(seq))


def as_shifts(shifts: Iterable[int]) -> tuple[int, ...]:
    """The shifts as a tuple, checked to be non-negative and strictly increasing."""
    shifts = tuple(shifts)
    if not shifts:
        raise ValueError("shift set must be non-empty")
    if shifts[0] < 0:
        raise ValueError("shifts must be non-negative")
    if any(a >= b for a, b in zip(shifts, shifts[1:])):
        raise ValueError(f"shifts must be strictly increasing, got {shifts}")
    return shifts


def periodic_correlation(block: int, t: int, shifts: Iterable[int]) -> int:
    """Theta(D) = sum_{i<t} (-1)**(s[i+d_1]+...+s[i+d_k]) for the sequence of period t and first period block.

    D is folded over two copies of block, so no shift wraps and each must
    lie in 0..t (a shift of t reads the block again, as 0 does).  A full
    periodic peak is |Theta| = t: a fold of all zeros or all ones.
    """
    d = as_shifts(shifts)
    if d[-1] > t:
        raise ValueError(f"shifts must be at most the period {t}, got {d}")
    two = block | block << t
    fold = 0
    for dj in d:
        fold ^= two >> dj
    return t - 2 * (fold & mask(t)).bit_count()


def fold_extensions(values: list[int], head: tuple[int, ...], size: int, start: int, end: int):
    """Yield (prefix, fold) for every increasing extension of head to size indices.

    The added indices are drawn from start..end-1, every one of them above
    head's; fold is the XOR of values[j] over the whole prefix.
    Consecutive prefixes share a leading part, whose partial folds are
    kept, so each prefix costs one XOR per index it does not share with
    the one before.  Prefixes come in lexicographic order.  Callers that
    pick one more index above the prefix loop over it themselves, which
    makes that index one XOR each.
    """
    fold = 0
    for j in head:
        fold ^= values[j]
    need = size - len(head)
    if not need:  # combinations would copy all of start..end-1 to yield one empty tuple
        yield head, fold
        return
    folds = [fold]  # folds[i]: fold of head and the first i added indices
    previous = (None,) * need
    for added in combinations(range(start, end), need):
        i = 0
        while i < need and added[i] == previous[i]:
            i += 1
        del folds[i + 1:]
        for j in added[i:]:
            folds.append(folds[-1] ^ values[j])
        previous = added
        yield head + added, folds[-1]
