"""Reference sequence families: LFSR based, Hall sextic residue, Fermat quotient.

Primitivity of a feedback polynomial is certified operationally: the state
orbit of the register must return to the seed after exactly 2**ell - 1
steps.  No factorization is involved, so the check works for arbitrary
user-supplied taps and reports the observed cycle length on failure.
The register is not stepped one bit at a time: over GF(2), f(x)**k =
f(x**k) for k a power of two, so the sequence also obeys the recurrence
of f(x**k), and `lfsr_cycle` builds it from word-wide blocks of that
recurrence with k doubling as the prefix grows.  The first return of the
seed state is then found with one search for the seed window in the
first 2**ell - 1 + ell bits; `_msequence_period` requires it at step
2**ell - 1.

`small_kasami` decimates lap by lap (`_decimate`): the indices d*i mod T
that fall in one lap around the period form one stride-d slice.

`hall_sextic` walks the powers of its root g once, until they return to
1: t - 1 distinct powers certify g as primitive, and the exponent of
each power, mod 6, is its sextic class.  The default root is found the
same way, by walking g = 2, 3, ... until one walk covers every unit.

Every generator returns a BitSequence with the period declared, rendered
over `periods` full periods (default 2, enough for recurrence synthesis
and exact minimal-period scans downstream).
"""

from .bitseq import BitSequence, mask, pack, unpack


class NonPrimitiveTapsError(ValueError):
    """Feedback taps whose state orbit misses the full cycle."""

    def __init__(self, degree: int, observed: int | None):
        self.degree = degree
        self.observed = observed
        want = (1 << degree) - 1
        if observed is None:
            msg = f"state orbit does not return to the seed within {want} steps"
        else:
            msg = f"observed cycle length {observed}, want {want}"
        super().__init__(f"taps are not primitive for degree {degree}: {msg}")


class NotPreferredPairError(ValueError):
    """Polynomial pair whose XOR sequence misses the expected complexity."""

    def __init__(self, expected: int, observed: int):
        self.expected = expected
        self.observed = observed
        super().__init__(
            f"pair is not preferred: combined linear complexity {observed}, want {expected}"
        )


# Connection polynomial exponents below the leading term, x**ell + sum(x**e).
# Each entry is certified primitive by the cycle-length check in the tests.
DEFAULT_TAPS: dict[int, tuple[int, ...]] = {
    2: (1, 0), 3: (1, 0), 4: (1, 0), 5: (2, 0), 6: (1, 0), 7: (1, 0),
    8: (4, 3, 2, 0), 9: (4, 0), 10: (3, 0), 11: (2, 0), 12: (6, 4, 1, 0),
    13: (4, 3, 1, 0), 14: (10, 6, 1, 0), 15: (1, 0), 16: (12, 3, 1, 0),
    17: (3, 0), 18: (7, 0), 19: (5, 2, 1, 0), 20: (3, 0),
}

# Preferred pairs for the Gold construction, as (taps_a, taps_b) exponent
# lists.  Shipped for these degrees only; other degrees need explicit taps.
# From degree 13 on, taps_a are DEFAULT_TAPS and taps_b are the shortest
# recurrence (Berlekamp-Massey) of that m-sequence decimated by 3 = 2 + 1,
# a preferred pair at every odd degree; the pairs at 5, 9 and 11 are too.
GOLD_PAIRS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    5: ((2, 0), (4, 3, 2, 0)),
    6: ((1, 0), (5, 2, 1, 0)),
    7: ((3, 0), (3, 2, 1, 0)),
    9: ((4, 0), (6, 4, 3, 0)),
    10: ((3, 0), (9, 8, 6, 3, 2, 0)),
    11: ((2, 0), (8, 5, 2, 0)),
    13: ((4, 3, 1, 0), (10, 9, 7, 5, 4, 0)),
    15: ((1, 0), (10, 5, 1, 0)),
}


def _taps_mask(exponents) -> int:
    """The taps mask with bit e set for each exponent e."""
    return sum(1 << e for e in set(exponents))


def _default_taps(ell: int) -> int:
    if ell not in DEFAULT_TAPS:
        raise ValueError(f"no default taps for degree {ell}; supply taps explicitly")
    return _taps_mask(DEFAULT_TAPS[ell])


def lfsr_cycle(ell: int, taps: int, seed: int) -> str | None:
    """The register's output from the seed state up to that state's first return.

    The register is s[i+ell] = c_{ell-1} s[i+ell-1] + ... + c_0 s[i]: bit j
    of the taps mask is c_j and bit j of the seed mask is s_j, both masks
    of at most ell bits.  None when the seed state does not return within
    2**ell - 1 steps; with c_0 = 1 the state map is invertible, so every
    nonzero seed returns.

    With f(x) = x**ell + sum_e x**e over the tap exponents e, every
    sequence the register emits is annihilated by f, hence by f(x)**k =
    f(x**k) for k a power of two: s[i + k*ell] = XOR_e s[i + k*e] for
    every i >= 0.  Given the first n >= k*ell bits, that gives bits n to
    n + k*(ell - max e) - 1 at once, each term one shift of the packed
    prefix.  k doubles while 2*k*ell <= n, so k > n / (4*ell) and each
    round lengthens the prefix by more than (ell - max e) / (4*ell) of
    itself: a period takes O(log T) rounds of shifted XORs.  The seed
    state first recurs at step r exactly when the seed window starts at
    r, so one `str.find` over the first T + ell bits finds the step at
    which the stepped register would have returned.
    """
    exponents = [e for e in range(ell) if taps >> e & 1]
    width = ell - max(exponents, default=0)
    want = (1 << ell) - 1 + ell
    data, n, k = seed, ell, 1
    while n < want:
        while 2 * k * ell <= n:
            k *= 2
        w = min(k * width, want - n)
        base = n - k * ell
        block = 0
        for e in exponents:
            block ^= data >> (base + k * e)
        data |= (block & mask(w)) << n
        n += w
    bits = unpack(data, want)
    r = bits.find(bits[:ell], 1)
    return bits[:r] if r > 0 else None


def _msequence_period(ell: int, taps: int, seed: int) -> str:
    """One full period of the register (see lfsr_cycle) as a bit string, certifying the full cycle.

    Both masks must fit in ell bits, and the seed must be nonzero.
    """
    if ell < 2:
        raise ValueError(f"degree must be >= 2, got {ell}")
    for name, bits in (("taps", taps), ("seed", seed)):
        if not 0 <= bits < 1 << ell:
            raise ValueError(f"{name} must fit in {ell} bits, got {bits:#x}")
    if not seed:
        raise ValueError("seed must be nonzero")
    cycle = lfsr_cycle(ell, taps, seed)
    if cycle is None or len(cycle) < (1 << ell) - 1:
        raise NonPrimitiveTapsError(ell, None if cycle is None else len(cycle))
    return cycle


def _decimate(u: str, d: int, shift: int) -> str:
    """The string v with v[i] = u[d * (i + shift) % T] for i < T = len(u), d >= 1.

    The indices d*j for j < T run d laps around u; lap q starts at the
    first multiple of d at or above q*T, offset (-q*T) % d into u, and
    takes every d-th character from there, so the laps joined in order
    are the decimation at shift 0, which the shift then rotates.
    """
    T = len(u)
    v = "".join(u[(-q * T) % d::d] for q in range(d))
    shift %= T
    return v[shift:] + v[:shift]


def _tile(block: str, copies: int) -> BitSequence:
    """`copies` periods of the bit string `block`, with its length declared as the period."""
    if copies < 1:
        raise ValueError("periods must be >= 1")
    return BitSequence.from_int(pack(block * copies), len(block) * copies, period=len(block))


def m_sequence(ell: int, taps: int | None = None, seed: int = 1, periods: int = 2) -> BitSequence:
    """Maximal-length LFSR sequence of degree ell, period 2**ell - 1.

    taps and seed are the masks `_msequence_period` reads, as `gen
    msequence --taps/--seed` parse them.  taps defaults to the shipped
    DEFAULT_TAPS[ell], seed to the state 10...0 (s_0 = 1).
    """
    if taps is None:
        taps = _default_taps(ell)
    return _tile(_msequence_period(ell, taps, seed), periods)


def gold_sequence(
    ell: int,
    shift: int = 0,
    taps_pair: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
    periods: int = 2,
) -> BitSequence:
    """Gold sequence: XOR of an m-sequence with a shifted companion m-sequence.

    Requires ell odd or ell == 2 (mod 4); preferred pairs exist for no other
    degrees.  The combined linear complexity is verified to be exactly 2*ell
    by recurrence synthesis over two periods, which catches any pair that is
    not preferred.
    """
    from .complexity import linear_complexity

    if ell % 2 == 0 and ell % 4 != 2:
        raise ValueError(f"no preferred pairs exist for degree {ell} (need odd or 2 mod 4)")
    if taps_pair is None:
        if ell not in GOLD_PAIRS:
            raise ValueError(f"no shipped preferred pair for degree {ell}; supply taps_pair")
        taps_pair = GOLD_PAIRS[ell]
    T = (1 << ell) - 1
    u = _msequence_period(ell, _taps_mask(taps_pair[0]), 1)
    v = _msequence_period(ell, _taps_mask(taps_pair[1]), 1)
    shift %= T
    block = unpack(pack(u) ^ pack(v[shift:] + v[:shift]), T)
    observed, _ = linear_complexity(pack(block * 2), 2 * T)
    if observed != 2 * ell:
        raise NotPreferredPairError(2 * ell, observed)
    return _tile(block, periods)


def small_kasami(ell: int, shift: int = 0, periods: int = 2) -> BitSequence:
    """Small-set Kasami sequence: m-sequence XOR its (2**(ell/2)+1)-decimation.

    ell must be even.  The decimated sequence lives in the half-degree
    subfield, so the combined linear complexity is 3*ell/2 (verified).
    """
    from .complexity import linear_complexity

    if ell % 2:
        raise ValueError(f"small Kasami needs even degree, got {ell}")
    T = (1 << ell) - 1
    u = _msequence_period(ell, _default_taps(ell), 1)
    d = (1 << (ell // 2)) + 1
    block = unpack(pack(u) ^ pack(_decimate(u, d, shift)), T)
    observed, _ = linear_complexity(pack(block * 2), 2 * T)
    expected = 3 * ell // 2
    if observed != expected:
        raise ValueError(f"decimation degenerated: combined complexity {observed}, want {expected}")
    return _tile(block, periods)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def hall_sextic(t: int, g: int | None = None, periods: int = 2) -> BitSequence:
    """Hall's sextic residue sequence of prime period t = 1 (mod 6).

    h_n = 1 iff n mod t falls in the sextic power classes 0, 1 or 3 of the
    primitive root g (default: the smallest).  Weight over one period is
    (t-1)/2; h_0 = 0.
    """
    if not is_prime(t):
        raise ValueError(f"period {t} is not prime")
    if t % 6 != 1:
        raise ValueError(f"period {t} is not 1 mod 6")
    for root in range(2, t) if g is None else (g,):
        if root % t == 0:
            raise ValueError("g must be a unit")
        cls: dict[int, int] = {}  # root^e mod t -> e mod 6, until the powers return to 1
        v = 1
        while v not in cls:
            cls[v] = len(cls) % 6
            v = v * root % t
        if len(cls) == t - 1:
            break
    else:
        raise ValueError(f"{g} is not a primitive root modulo {t}")
    block = "0" + "".join("1" if cls[n] in (0, 1, 3) else "0" for n in range(1, t))
    return _tile(block, periods)


def fermat_quotient(p: int, u: int) -> int:
    """q_p(u) in 0..p-1, with q_p(u) = 0 when p divides u."""
    if u % p == 0:
        return 0
    # u**(p-1) = 1 + p*q (mod p**2); everything stays below p**2
    x = pow(u, p - 1, p * p)
    return (x - 1) // p


def fermat_threshold(p: int, periods: int = 2) -> BitSequence:
    """Binary threshold sequence of Fermat quotients, period p**2, p an odd prime below 2**31.

    e_u = 0 iff q_p(u)/p < 1/2, evaluated exactly as 2*q < p.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p >= 1 << 31:
        raise ValueError("p must fit in 31 bits")
    T = p * p
    block = "".join("1" if 2 * fermat_quotient(p, u) >= p else "0" for u in range(T))
    return _tile(block, periods)
